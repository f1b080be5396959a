// Package fsio is the one way a whole file is put on disk — checkpoints (gob
// and flat), prune sidecars, datasets, every command's -out TSV: a
// uniquely-named temp file in the target directory, an fsync of the file
// before the rename, and an fsync of the parent directory after it.
// internal/wal, whose files grow in place, seals a new log's name with SyncDir.
//
// The three steps close three distinct failure windows:
//
//   - a unique temp name (os.CreateTemp) means two processes writing the
//     same path concurrently — kgserve and kgdiscover sharing a checkpoint's
//     sidecar, say — can never interleave writes into one file and rename a
//     corrupt hybrid into place;
//   - the file fsync means the rename can never make durable a name whose
//     content is still in the page cache, so a crash just after rename
//     cannot surface an empty or torn file on journaling filesystems that
//     order metadata ahead of data;
//   - the directory fsync makes the rename itself durable, so a crash just
//     after a successful return cannot roll the path back to its previous
//     content (or to nothing).
package fsio

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
)

// WriteAtomic writes path atomically and durably: write streams the content
// into a unique temp file in path's directory, which is fsync'd, renamed
// over path, and sealed with a directory fsync. On any error the temp file
// is removed and path is untouched.
func WriteAtomic(path string, write func(f *os.File) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	// CreateTemp opens 0600; published artifacts keep the 0644 the previous
	// os.Create path produced (modulo umask).
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making any renames inside it durable.
// Filesystems that do not support directory fsync (EINVAL/ENOTSUP) are
// treated as success: the rename is still atomic there, durability is simply
// whatever the filesystem offers.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
