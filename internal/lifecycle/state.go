package lifecycle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/atomicfile"
)

// MemState is an in-process State: jobs survive Migrator restarts within
// one process (tests, the harness) but not crashes.
type MemState struct {
	mu   sync.Mutex
	jobs map[string]Job
}

// NewMemState builds an empty in-memory State.
func NewMemState() *MemState {
	return &MemState{jobs: make(map[string]Job)}
}

// Load implements State.
func (s *MemState) Load() ([]Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Save implements State.
func (s *MemState) Save(j Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.Name] = j
	return nil
}

// Clear implements State.
func (s *MemState) Clear(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, name)
	return nil
}

// FileState checkpoints the job queue to one JSON file, rewritten
// atomically (temp file + rename) on every change, so a crash at any
// instant leaves either the previous or the next consistent queue on disk.
// This is the durable State cyrusctl wires up.
type FileState struct {
	mu   sync.Mutex
	path string
	jobs map[string]Job
}

// NewFileState opens (or creates) a file-backed State at path.
func NewFileState(path string) (*FileState, error) {
	s := &FileState{path: path, jobs: make(map[string]Job)}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lifecycle: reading %s: %w", path, err)
	}
	if len(data) == 0 {
		return s, nil
	}
	var jobs []Job
	if err := json.Unmarshal(data, &jobs); err != nil {
		return nil, fmt.Errorf("lifecycle: parsing %s: %w", path, err)
	}
	for _, j := range jobs {
		s.jobs[j.Name] = j
	}
	return s, nil
}

// Load implements State.
func (s *FileState) Load() ([]Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Save implements State.
func (s *FileState) Save(j Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.Name] = j
	return s.flushLocked()
}

// Clear implements State.
func (s *FileState) Clear(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, name)
	return s.flushLocked()
}

func (s *FileState) flushLocked() error {
	jobs := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Name < jobs[j].Name })
	data, err := json.MarshalIndent(jobs, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.Write(s.path, 0o600, bytes.NewReader(data).WriteTo)
}
