// Package durable holds memnet's crash-safe file primitives: the
// filesystem seam every durable file goes through (FS, File, OSFS and
// the fault-injecting FaultFS), the advisory single-writer flock, and
// Log, the append-only JSON-lines file under both the sweep journal
// (exp.Journal) and memnetd's accept journal (serve.AcceptLog).
//
// The seam lets tests inject the failures a long-lived deployment
// actually meets — ENOSPC mid-append, a torn write under a crash, an
// unreadable entry — deterministically and without root or loop
// devices. Production code always runs on OSFS, which delegates 1:1 to
// the os package.
package durable

import (
	"io"
	"io/fs"
	"os"
	"time"
)

// FS is the set of filesystem operations the durable files (the result
// store and both journals) need. Implementations must be safe for
// concurrent use.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (fs.FileInfo, error)
	Chtimes(name string, atime, mtime time.Time) error
}

// File is the open-file surface the durable paths use: sequential
// reads for replay, appends, fsync, tail truncation, and the raw fd
// for the advisory flock.
type File interface {
	io.ReadWriteCloser
	Name() string
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Fd() uintptr
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (OSFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OSFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                   { return os.Remove(name) }
func (OSFS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (OSFS) Chtimes(name string, a, m time.Time) error  { return os.Chtimes(name, a, m) }
