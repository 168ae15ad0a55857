// Package atomicfile replaces a file so that a crash at any point leaves
// either the old content or the new under its name, never a torn or empty
// file.
package atomicfile

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// CreateTemp opens the temp file Write fills. It is os.CreateTemp; syncdir's
// tests swap it to make an index write fail.
var CreateTemp = os.CreateTemp

// Write fills a hidden temp file beside path through fill, gives it perm,
// syncs it, renames it over path and syncs the directory. The data is on disk
// before the rename makes it the file, and the rename is durable when Write
// returns nil. On any failure the temp file is removed, path is untouched,
// and fill's own error is returned unchanged. fill has io.WriterTo's
// signature, so bytes.NewReader(data).WriteTo writes a byte slice.
func Write(path string, perm fs.FileMode, fill func(w io.Writer) (int64, error)) error {
	dir := filepath.Dir(path)
	tmp, err := CreateTemp(dir, ".partial-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if err = tmp.Chmod(perm); err == nil {
		if _, err = fill(tmp); err == nil {
			err = tmp.Sync()
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
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
