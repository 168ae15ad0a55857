package lifecycle

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
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

// createTemp opens the file flushLocked writes the next queue to; tests
// swap it to make that write fail.
var createTemp = os.CreateTemp

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
	dir := filepath.Dir(s.path)
	tmp, err := createTemp(dir, ".lifecycle-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	// The data must be on disk before the rename makes it the queue: a
	// rename that outlives a power cut its data did not would leave an
	// empty or partial file under s.path.
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, s.path); err != nil {
		os.Remove(name)
		return err
	}
	return syncDir(dir)
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
