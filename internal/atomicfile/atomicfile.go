// Package atomicfile replaces files crash-safely: a reader, or the
// process after a crash, sees either the previous complete file or the
// new complete file, never a torn one.
//
// WriteFile puts the bytes in a uniquely named O_EXCL temp file beside
// the target (no two writers, goroutines or processes, can ever share
// one), fsyncs it before the rename commits it, and fsyncs the
// directory after, so the rename itself survives a crash. A crash
// between write and rename leaves only an orphan temp file.
//
// For failure-path testing WriteFile accepts a fault injector: the
// Fault* site constants below name the steps that can be made to fail
// on a seeded schedule.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fault"
)

// Fault-injection sites understood by WriteFile. Keys passed to the
// injector are the target's base name.
const (
	// FaultWrite fails the temp-file write.
	FaultWrite = "atomicfile.write"
	// FaultRename fails the commit rename, leaving the previous file
	// (the crash window between write and rename).
	FaultRename = "atomicfile.rename"
)

// WriteFile replaces the file at path with data, readable by everyone
// and writable by the owner (0644). On error the previous file, if
// any, is untouched and no temp file is left behind. in may be nil
// (never inject).
func WriteFile(path string, data []byte, in *fault.Injector) error {
	dir, name := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+name+".*.tmp")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = in.Err(FaultWrite, name)
	}
	if err == nil {
		err = tmp.Chmod(0o644) // os.CreateTemp makes it 0600
	}
	if err == nil {
		// fsync before rename: the rename must never commit a file
		// whose bytes could still be lost from the page cache.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("atomicfile: write %s: %w", path, err)
	}
	if err := in.Err(FaultRename, name); err != nil {
		return fmt.Errorf("atomicfile: commit %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomicfile: commit %s: %w", path, err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-committed rename survives a
// crash. Failures are ignored: the file is complete either way, and
// only the rename's durability is at stake.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
