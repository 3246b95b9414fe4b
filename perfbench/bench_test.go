package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"memnet/internal/exp"
	"memnet/internal/sim"
)

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to this package: every
// name is well formed and the workloads and metrics it lists are exactly
// the ones perfbench runs and reports, with the same units.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		check(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not run by perfbench", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end lists %d metrics, perfbench reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		check(m.Name)
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s, perfbench reports %s %s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer lists %d metrics, perfbench reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		check(m.Name)
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s %s, perfbench reports %s %s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

// runCapture runs perfbench in the repository root and returns its
// parsed last output line.
func runCapture(t *testing.T, args ...string) report {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	code := run(append([]string{"-root", ".."}, args...))
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("run %v exited %d:\n%s", args, code, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("run %v: %+v", args, rep)
	}
	return rep
}

// TestEveryMetricEmitted runs each workload's traced run briefly and one
// untraced run, and requires every listed metric in the output, each
// per-layer metric measured (non-zero) by at least one workload.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	measured := map[string]bool{}
	// The daemon's traced run needs 100 repeat jobs for serve.hit_ms.p90.
	for w, secs := range map[string]string{"sweep-deep": "2", "sweep-shallow": "2", "daemon-mixed": "20"} {
		rep := runCapture(t, "-workload", w, "-seed", "3", "-seconds", secs, "-trace", "1")
		for _, d := range perLayer {
			m, ok := rep.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s missing or mis-united: %+v", w, d.Name, m)
			}
			if m.Value != 0 {
				measured[d.Name] = true
			}
		}
	}
	for _, d := range perLayer {
		if !measured[d.Name] && d.Name != "serve.rejected" {
			t.Errorf("per-layer metric %s reads 0 on every workload", d.Name)
		}
	}
	rep := runCapture(t, "-workload", "sweep-shallow", "-seed", "3", "-seconds", "16", "-trace", "0")
	for _, d := range endToEnd {
		if m, ok := rep.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %s: %+v (present=%v)", d.Name, m, ok)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples leaves 9 above it and must be refused")
	}
	if v, err := percentile(seq(100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples leaves 9 above it and must be refused")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

// TestDaemonRounds: every seed simulates the same cells round by round,
// each round holds every workload × topology pair once, and the rates
// cover only rounds whose cells all arrived.
func TestDaemonRounds(t *testing.T) {
	universe := daemonUniverse()
	a, pairs := daemonRounds(universe, sim.NewRNG(1))
	b, _ := daemonRounds(universe, sim.NewRNG(2))
	if len(a) != len(universe) || pairs != 56 {
		t.Fatalf("%d cells in %d-cell rounds; want %d in 56", len(a), pairs, len(universe))
	}
	seen := map[int]bool{}
	for r := 0; r < len(a)/pairs; r++ {
		ra, rb := map[int]bool{}, map[int]bool{}
		pairSeen := map[int]bool{}
		for i := r * pairs; i < (r+1)*pairs; i++ {
			ra[a[i]], rb[b[i]], seen[a[i]] = true, true, true
			pairSeen[a[i]/len(daemonMechs)] = true
		}
		if !maps.Equal(ra, rb) || len(pairSeen) != pairs {
			t.Fatalf("round %d differs between seeds or misses a pair", r)
		}
	}
	if len(seen) != len(universe) {
		t.Fatalf("rounds cover %d of %d cells", len(seen), len(universe))
	}

	ms := time.Millisecond
	// Two-cell rounds: round 0 ends at 30 ms (its cells out of order),
	// round 1 at 50 ms, round 2 never completes.
	cells, jobs := perRound(
		[]time.Duration{30 * ms, 20 * ms, 40 * ms, 50 * ms, 60 * ms},
		[]int{0, 0, 1, 1, 2},
		[]time.Duration{10 * ms, 30 * ms, 45 * ms, 50 * ms, 60 * ms}, 2)
	if len(cells) != 2 || math.Abs(cells[0]-2/0.030) > 1e-9 || math.Abs(cells[1]-2/0.020) > 1e-9 ||
		math.Abs(jobs[0]-2/0.030) > 1e-9 || math.Abs(jobs[1]-2/0.020) > 1e-9 {
		t.Errorf("perRound = %v, %v; want cells [66.7 100], jobs [66.7 100]", cells, jobs)
	}
}

func shortCell(s exp.Spec) exp.Spec {
	s.Warmup, s.SimTime = 5*sim.Microsecond, 20*sim.Microsecond
	return s
}

// TestSeedReachesSeedSalt: the benchmark seed becomes every sweep cell's
// SeedSalt, and a different seed changes the generated traffic.
func TestSeedReachesSeedSalt(t *testing.T) {
	for w := range sweeps {
		for _, s := range sweepCells(w, 7) {
			if s.SeedSalt != 7 {
				t.Fatalf("%s: cell %s has SeedSalt %d, want 7", w, s.Key(), s.SeedSalt)
			}
		}
	}
	a := shortCell(sweepCells("sweep-shallow", 1)[0])
	b := shortCell(sweepCells("sweep-shallow", 2)[0])
	ra, err := exp.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := exp.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Events == rb.Events && modelDigest(ra) == modelDigest(rb) {
		t.Error("seeds 1 and 2 produced identical results")
	}
}

// TestTracedCellReproducesResult: a traced cell returns exactly the
// Result exp.RunBudgeted computes for the same spec, for every kind of
// cell the sweeps run (no policy, network-aware, network-unaware).
func TestTracedCellReproducesResult(t *testing.T) {
	cells := []exp.Spec{sweepCells("sweep-deep", 5)[1]}
	cells = append(cells, sweepCells("sweep-shallow", 5)[:2]...)
	for _, c := range cells {
		c = shortCell(c)
		want, err := exp.RunBudgeted(context.Background(), c, exp.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		got, ct, err := runTraced(c, newTracer(), 0)
		if err != nil {
			t.Fatal(err)
		}
		wd, _ := fullDigest(want)
		gd, _ := fullDigest(got)
		if wd != gd {
			t.Errorf("%s: traced result %s != untraced %s", c.Key(), gd, wd)
		}
		if ct.events != want.Events || ct.injects == 0 || ct.completes == 0 {
			t.Errorf("%s: trace counted %d events (want %d), %d injects, %d completions",
				c.Key(), ct.events, want.Events, ct.injects, ct.completes)
		}
	}
}

// TestDigestCoversEveryCell: the committed digest has an entry for every
// sweep cell at the default seed and every daemon cell.
func TestDigestCoversEveryCell(t *testing.T) {
	digests, err := loadDigests(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for w := range sweeps {
		for _, s := range sweepCells(w, defaultSeed) {
			keys = append(keys, s.Key())
		}
	}
	for _, sj := range daemonUniverse() {
		s, err := sj.ToSpec()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, s.Key())
	}
	for _, k := range keys {
		if digests[k] == "" {
			t.Errorf("no committed digest for %s", k)
		}
	}
	if len(digests) != len(keys) {
		t.Errorf("digest file has %d entries, the benchmark runs %d cells", len(digests), len(keys))
	}
}
