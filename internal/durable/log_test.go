package durable

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type rec struct {
	K string `json:"k"`
}

// openRecs opens a Log of rec lines, returning it with the records
// replayed; a line without a key is corrupt.
func openRecs(fsys FS, path string) (*Log, []string, error) {
	var got []string
	l, err := Open(fsys, path, "test log", "use another path", func(line []byte) bool {
		var r rec
		if json.Unmarshal(line, &r) != nil || r.K == "" {
			return false
		}
		got = append(got, r.K)
		return true
	})
	return l, got, err
}

// TestLogOpenTruncates pins replay: every complete line up to the first
// corrupt or torn one is replayed, and the file is cut back to exactly
// those lines.
func TestLogOpenTruncates(t *testing.T) {
	for _, tc := range []struct {
		name, disk string
		want       []string
		kept       string
	}{
		{"empty", "", nil, ""},
		{"clean", "{\"k\":\"a\"}\n{\"k\":\"b\"}\n", []string{"a", "b"}, "{\"k\":\"a\"}\n{\"k\":\"b\"}\n"},
		{"torn tail", "{\"k\":\"a\"}\n{\"k\":\"to", []string{"a"}, "{\"k\":\"a\"}\n"},
		{"complete line torn of its newline", "{\"k\":\"a\"}\n{\"k\":\"b\"}", []string{"a"}, "{\"k\":\"a\"}\n"},
		{"corrupt interior", "{\"k\":\"a\"}\ngarbage\n{\"k\":\"c\"}\n", []string{"a"}, "{\"k\":\"a\"}\n"},
		{"rejected record", "{\"k\":\"\"}\n{\"k\":\"b\"}\n", nil, ""},
		{"blank line", "{\"k\":\"a\"}\n\n{\"k\":\"c\"}\n", []string{"a"}, "{\"k\":\"a\"}\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(tc.disk), 0o644); err != nil {
				t.Fatal(err)
			}
			l, got, err := openRecs(nil, path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("replayed %q, want %q", got, tc.want)
			}
			// The cut file appends cleanly at once.
			if err := l.Append(rec{K: "z"}); err != nil {
				t.Fatal(err)
			}
			l.Close()
			data, _ := os.ReadFile(path)
			if string(data) != tc.kept+"{\"k\":\"z\"}\n" {
				t.Fatalf("file after open+append = %q, want %q", data, tc.kept+"{\"k\":\"z\"}\n")
			}
		})
	}
}

// TestLogAppendFaults injects each way an append can fail through the
// fs seam: the error reaches the caller, and a reopen restores every
// record before the failed one.
func TestLogAppendFaults(t *testing.T) {
	errENOSPC := errors.New("injected ENOSPC")
	for _, rule := range []FaultRule{
		{Op: OpWrite, Err: errENOSPC, Count: 1},
		{Op: OpWrite, Err: errENOSPC, Count: 1, Short: 5},
		{Op: OpSync, Err: errENOSPC, Count: 1},
	} {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		ffs := NewFaultFS(nil)
		l, _, err := openRecs(ffs, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(rec{K: "a"}); err != nil {
			t.Fatal(err)
		}
		ffs.Fail(rule)
		if err := l.Append(rec{K: "b"}); !errors.Is(err, errENOSPC) {
			t.Fatalf("%s (short %d): append err = %v, want ENOSPC", rule.Op, rule.Short, err)
		}
		l.Close()
		l, got, err := openRecs(ffs, path)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		// A failed fsync still wrote the line; only the torn and failed
		// writes lose it.
		if len(got) == 0 || got[0] != "a" || (rule.Op == OpWrite && len(got) != 1) {
			t.Fatalf("%s (short %d): replayed %q after the fault", rule.Op, rule.Short, got)
		}
	}
}

// TestLogFlockConflict pins the single-writer lock and its error: the
// second opener is refused with the caller's name and advice, and the
// path is reusable the moment the holder closes.
func TestLogFlockConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _, err := openRecs(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = openRecs(nil, path)
	if err == nil {
		t.Fatal("second open of a locked log succeeded")
	}
	want := "test log " + path + ": already locked by another process (flock: "
	if !strings.HasPrefix(err.Error(), want) || !strings.HasSuffix(err.Error(), "); use another path") {
		t.Fatalf("conflict error = %q", err)
	}
	l.Close()
	l, _, err = openRecs(nil, path)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	l.Close()
}

// TestLogReset pins compaction: a reset log is empty on disk and takes
// appends from offset zero.
func TestLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _, err := openRecs(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if err := l.Append(rec{K: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{K: "c"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if data, _ := os.ReadFile(path); string(data) != "{\"k\":\"c\"}\n" {
		t.Fatalf("file after reset+append = %q", data)
	}
}
