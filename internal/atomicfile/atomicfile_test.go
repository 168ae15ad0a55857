package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(path, content string) error {
	return Write(path, 0o640, strings.NewReader(content).WriteTo)
}

// onlyEntry fails unless dir holds exactly the one file name.
func onlyEntry(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		t.Fatalf("dir holds %v, want only %s", entries, name)
	}
}

func TestWriteReplacesWithPerm(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, content := range []string{"first", "second"} {
		if err := write(path, content); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("file = %q (%v), want %q", got, err, content)
		}
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o640 {
		t.Fatalf("mode = %v (%v), want 0640", st.Mode(), err)
	}
	onlyEntry(t, dir, "state.json")
}

// TestFailedFillKeepsOldFile: fill's error comes back unchanged (callers
// tell a reader abort from a local fault by it), the old file is intact, and
// no temp file is left.
func TestFailedFillKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := write(path, "old"); err != nil {
		t.Fatal(err)
	}
	abort := errors.New("reader aborted")
	err := Write(path, 0o644, func(w io.Writer) (int64, error) {
		n, _ := io.WriteString(w, "torn")
		return int64(n), abort
	})
	if err != abort {
		t.Fatalf("err = %v, want fill's own error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("file = %q (%v) after a failed fill, want the old content", got, err)
	}
	onlyEntry(t, dir, "state.json")
}
