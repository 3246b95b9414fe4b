package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie above a reported percentile: a
// p90 over fewer than 100 samples would rest on a handful of outliers.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule. It refuses when fewer than minTail samples lie
// strictly above the chosen rank.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g: no samples", q*100)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if above := n - 1 - rank; above < minTail {
		return 0, fmt.Errorf("percentile p%g: %d samples leave %d above it, need %d", q*100, n, above, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank], nil
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// statusMB reads one kB-valued field of /proc/self/status, such as
// VmRSS, in MiB.
func statusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, v, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s line in /proc/self/status", field)
}

// blockLen splits a measured window into blocks; a peak is the median
// over blocks, so a host stall in one block does not move it.
const blockLen = 3 * time.Second

// RSS is sampled every rssEvery; peak_rss_mb is the median block maximum.
// One high-water mark per run swings with where the garbage collector
// happened to run; the median block peak does not.
const rssEvery = 50 * time.Millisecond

// rssMonitor samples resident memory until finish is called.
type rssMonitor struct {
	stop, done chan struct{}
	maxima     []float64
	cur        float64
	err        error
}

func startRSSMonitor() *rssMonitor {
	m := &rssMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		blockEnd := time.Now().Add(blockLen)
		if m.cur, m.err = statusMB("VmRSS"); m.err != nil {
			return
		}
		for {
			select {
			case <-m.stop:
				return
			case now := <-tick.C:
				v, err := statusMB("VmRSS")
				if err != nil {
					m.err = err
					return
				}
				m.cur = math.Max(m.cur, v)
				if now.After(blockEnd) {
					m.maxima = append(m.maxima, m.cur)
					m.cur = 0
					blockEnd = blockEnd.Add(blockLen)
				}
			}
		}
	}()
	return m
}

// finish stops sampling and returns the median block peak; a window
// shorter than one block reports its own peak.
func (m *rssMonitor) finish() (float64, error) {
	close(m.stop)
	<-m.done
	if m.err != nil {
		return 0, m.err
	}
	if len(m.maxima) == 0 {
		return m.cur, nil
	}
	return median(m.maxima), nil
}

// Host is the fingerprint every results record carries, so that two
// records are only compared when they come from the same host and code.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func hostFingerprint(root string, seed uint64) Host {
	return Host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(root),
		Seed:       seed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code under test: the git commit, or "unknown"
// when the checkout is not a git repository.
func commitID(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
