package durable

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Log is an append-only JSON-lines file held under the single-writer
// flock. A crash mid-append leaves at most one partial final line;
// Open truncates it away, so the file always reopens appendable with
// every complete record before the tear intact.
type Log struct {
	mu   sync.Mutex
	f    File
	path string
}

// Open opens (creating if needed) the log at path on fsys (nil = the
// real filesystem), takes the flock, and feeds every complete line to
// scan in file order. The scan stops at the first line scan rejects — a
// corrupt interior line makes everything after it suspect too — or at a
// final line without its newline, the signature of a torn write; the
// file is truncated there. name labels the file in errors ("journal",
// "accept journal"); conflict ends the error a second opener gets by
// saying what two writers would break and what to do instead.
func Open(fsys FS, path, name, conflict string, scan func(line []byte) bool) (*Log, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, path, err)
	}
	if err := lock(f.Fd()); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s %s: already locked by another process (flock: %w); %s",
			name, path, err, conflict)
	}
	l := &Log{f: f, path: path}
	good, err := scanLines(f, scan)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s %s: %w", name, path, err)
	}
	if err := l.truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s %s: truncate torn tail: %w", name, path, err)
	}
	return l, nil
}

// scanLines feeds each complete line to scan and returns the offset
// just past the last line it accepted.
func scanLines(r io.Reader, scan func([]byte) bool) (int64, error) {
	rd := bufio.NewReader(r)
	var good, off int64
	for {
		line, err := rd.ReadBytes('\n')
		off += int64(len(line))
		switch {
		case err == nil: // a line without its trailing \n is a torn write
			if !scan(line) {
				return good, nil
			}
			good = off
		case err == io.EOF:
			return good, nil
		default:
			return 0, err
		}
	}
}

// truncate cuts the file to size and positions appends there.
func (l *Log) truncate(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return err
	}
	_, err := l.f.Seek(size, io.SeekStart)
	return err
}

// Append marshals v as one line, writes it and syncs it to stable
// storage before returning. Safe for concurrent use.
func (l *Log) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(b); err != nil {
		return err
	}
	return l.f.Sync()
}

// Reset empties the log. Callers compact with it only when no record
// is still owed: a truncate to zero is then trivially crash-safe, where
// rewriting live records in place would not be.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncate(0)
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close releases the file and with it the flock.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
