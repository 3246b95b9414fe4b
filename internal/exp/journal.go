// Crash-safe sweep journaling. A Journal is an append-only JSON-lines
// file mapping Spec.key() to its Result. Sweeps append every fresh cell
// as it completes; a killed run restarted with the same journal path
// restores the completed cells and simulates only the remainder, so the
// combined output is byte-identical to an uninterrupted run (results are
// always committed and rendered in sweep order, never in completion
// order).
//
// The file is a durable.Log: flocked against a second writer, fsynced
// per append, and truncated back to the last complete entry when a
// crash tore the final line, so only the lost cell re-runs. Restored
// results do not keep their marshaled Spec — JSON does not round-trip
// every Spec field bit-exactly — the caller's canonical normalized spec
// replaces it (see CanonicalResult).
package exp

import (
	"encoding/json"

	"memnet/internal/durable"
)

// journalEntry is one line of the file.
type journalEntry struct {
	Key    string `json:"key"`
	Result Result `json:"result"`
}

// Journal appends completed sweep cells to a JSON-lines file.
type Journal struct{ log *durable.Log }

// OpenJournal opens (creating if needed) the journal at path and returns
// it together with every result recoverable from previous runs, keyed by
// Spec.key(). A trailing partial or corrupt line — the signature of a
// crash mid-append — is truncated away so the file stays valid for
// appending.
func OpenJournal(path string) (*Journal, map[string]Result, error) {
	return openJournal(nil, path)
}

// openJournal is OpenJournal on an injectable filesystem (nil = real).
func openJournal(fsys durable.FS, path string) (*Journal, map[string]Result, error) {
	loaded := map[string]Result{}
	l, err := durable.Open(fsys, path, "journal",
		"two writers interleaving appends would corrupt the journal — "+
			"stop the other process or use a different journal path",
		func(line []byte) bool {
			var e journalEntry
			if json.Unmarshal(line, &e) != nil || e.Key == "" {
				return false
			}
			loaded[e.Key] = e.Result
			return true
		})
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: l}, loaded, nil
}

// Append writes one completed cell and syncs it to stable storage.
// Safe for concurrent use.
func (j *Journal) Append(key string, res Result) error {
	return j.log.Append(journalEntry{Key: key, Result: res})
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.log.Path() }

// Close releases the journal file.
func (j *Journal) Close() error { return j.log.Close() }
