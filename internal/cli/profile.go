package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// stopProfiles flushes whatever StartProfiles armed; until then it is
// a no-op so error paths can call StopProfiles unconditionally.
var stopProfiles = func() {}

// StopProfiles flushes any armed profiles. It is idempotent. os.Exit
// skips defers, so exit paths that should still produce usable profiles
// call it directly or the files come out truncated.
func StopProfiles() { stopProfiles() }

// StartProfiles arms CPU and/or heap profiling per -cpuprofile and
// -memprofile. Both files are created up front so a bad path fails fast,
// before any simulation runs. Flush them with StopProfiles.
func StartProfiles(cpuPath, memPath string) error {
	var cpuFile, memFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("bad -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("bad -cpuprofile: %v", err)
		}
		cpuFile = f
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return fmt.Errorf("bad -memprofile: %v", err)
		}
		memFile = f
	}
	stopped := false
	stopProfiles = func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memFile != nil {
			// Collect garbage first so the heap profile shows what the
			// run keeps live, not what the collector hasn't reached yet.
			runtime.GC()
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
			memFile.Close()
		}
	}
	return nil
}
