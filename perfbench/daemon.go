package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"memnet/internal/exp"
	"memnet/internal/serve"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// daemonJobCells is how many cells one daemon job holds.
const daemonJobCells = 2

// priorEntries is how many results the store holds from an earlier
// daemon life, so that start-up fsck has real work to do.
const priorEntries = 1024

// daemonMech is one mechanism/policy setting of the daemon's universe.
type daemonMech struct {
	mech, policy string
	alpha        float64
	wakeupNS     int // 0 = the 14 ns default
}

// daemonMechs are the universe's settings: the three bandwidth
// mechanisms at full power, and the three ROO variants under their
// policies at the α values of the α-sweep study and both of the paper's
// wakeup latencies.
var daemonMechs = func() []daemonMech {
	out := []daemonMech{{"FP", "none", 0, 0}, {"VWL", "none", 0, 0}, {"DVFS", "none", 0, 0}}
	for _, a := range []float64{0.0125, 0.025, 0.05, 0.1, 0.2, 0.3} {
		for _, w := range []int{0, 20} {
			out = append(out, daemonMech{"ROO", "unaware", a, w}, daemonMech{"VWL+ROO", "aware", a, w},
				daemonMech{"DVFS+ROO", "aware", a, w})
		}
	}
	return out
}()

// daemonUniverse is every spec a daemon job may draw: all 14 workloads on
// all four topologies of the small study, under the 39 daemonMechs
// settings, each a 25 us warmup plus 200 us measured. The committed
// digest covers all of them, so every fresh result is checked. A run
// must not exhaust it (a repeated cell would be a store hit, not fresh
// work): at the fastest rate seen a 40 s run simulates about half.
func daemonUniverse() []exp.SpecJSON {
	var out []exp.SpecJSON
	for _, p := range workload.Profiles {
		for _, topo := range topology.Kinds {
			for _, m := range daemonMechs {
				out = append(out, exp.SpecJSON{Workload: p.Name, Topology: topo.String(), Size: "small",
					Mechanism: m.mech, Policy: m.policy, Alpha: m.alpha, WakeupNS: m.wakeupNS,
					SimTime: "200us", Warmup: "25us"})
			}
		}
	}
	return out
}

// daemonCellUS is the modeled time of one daemon cell.
const daemonCellUS = 225.0

// daemon is one in-process memnetd life, wired like cmd/memnetd: the
// result store, the accept WAL at <store>/accept.wal, and one runner per
// closed-loop client (memnetd -runners 2 on the 2-vCPU reference host).
// With one runner, the default, a single client leaves one core idle and
// the run's speed follows whichever vCPU the runner sits on; over ten
// runs its spread was twice the pooled sweeps'. Two clients on one
// runner queue behind each other in a phase that drifts between runs.
type daemon struct {
	srv     *serve.Server
	accepts *serve.AcceptLog
	hs      *http.Server
	url     string
	served  chan error
}

func startDaemon(dir string) (*daemon, error) {
	store, err := serve.NewStore(dir)
	if err != nil {
		return nil, err
	}
	if _, err := store.Fsck(); err != nil {
		return nil, fmt.Errorf("store fsck: %w", err)
	}
	accepts, pending, err := serve.OpenAcceptLog(filepath.Join(dir, "accept.wal"), nil)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Store: store, Accepts: accepts, Runners: poolJobs()})
	srv.Recover(pending)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		accepts.Close()
		return nil, err
	}
	d := &daemon{srv: srv, accepts: accepts, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits for its HTTP server to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	derr := d.srv.Drain(ctx)
	serr := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	return errors.Join(derr, serr, d.accepts.Close())
}

// prepareStore leaves the same priorEntries stored results in each of
// dirs, as an earlier daemon life would, and returns one real payload.
func prepareStore(sj exp.SpecJSON, dirs ...string) (json.RawMessage, error) {
	spec, err := sj.ToSpec()
	if err != nil {
		return nil, err
	}
	res, err := exp.Run(spec)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		store, err := serve.NewStore(dir)
		if err != nil {
			return nil, err
		}
		for i := 0; i < priorEntries; i++ {
			if err := store.Put(fmt.Sprintf("%s|prior=%d", spec.Key(), i), payload); err != nil {
				return nil, err
			}
		}
	}
	return payload, nil
}

// daemonRun is the state the closed-loop clients share.
type daemonRun struct {
	b        *bench
	url      string
	client   *http.Client
	universe []exp.SpecJSON
	order    []int          // the universe in rounds
	round    map[string]int // each spec key's round
	next     int
	done     [][]exp.SpecJSON // runs of completed fresh jobs
	// sums holds a digest of each key's first fresh result, for the
	// cache-hit check; unverified holds the fresh results not yet checked,
	// and sample a few results for the isolated store driver. Holding
	// every result to the end would put the client's copies into the
	// daemon's peak_rss_mb, growing with the run's progress.
	sums       map[string][sha256.Size]byte
	unverified map[string]json.RawMessage
	sample     map[string]json.RawMessage
	fresh      []float64 // job latencies, ms
	hits       []float64
	submit     []float64 // POST to response headers, ms
	queue      []float64 // response headers to the job's "running" event, ms
	cell       []float64 // between fresh cells' result events, ms
	// start is the window's start, moved on by every set-up pause, so
	// that cellDone and jobDone count only the time jobs ran.
	start    time.Time
	spare    string          // store the set-ups inside the window start on
	setups   []float64       // set-up wall times, s
	cellDone []time.Duration // when each fresh cell's result arrived
	cellRnd  []int           // and the round it belongs to
	jobDone  []time.Duration // when each job completed
	noDone   int             // streams that ended without a done event

	lastSetup time.Time
	// mu guards the client state above; pause is held for reading by
	// every job in flight and for writing by a set-up inside the window.
	mu    sync.Mutex
	pause sync.RWMutex
}

// daemonRounds orders the universe in rounds. A round takes one cell of
// every workload × topology pair, the mechanism rotating round by round
// from a fixed offset per pair, so that a round holds each mechanism
// about equally often. The rounds are the same on every seed, which only
// shuffles the order within each: a run simulates a prefix of the
// rounds, and a prefix the seed chose would make the rates depend on its
// cost. It relies on daemonUniverse listing the mechanisms innermost.
func daemonRounds(universe []exp.SpecJSON, rng *sim.RNG) (order []int, pairs int) {
	mechs := len(daemonMechs)
	pairs = len(universe) / mechs
	for r := 0; r < mechs; r++ {
		for _, p := range pickCells(rng, pairs, pairs) {
			order = append(order, p*mechs+(r+p*mechStride)%mechs)
		}
	}
	return order, pairs
}

// mechStride spreads the pairs' mechanism offsets over the settings; it
// shares no factor with len(daemonMechs).
const mechStride = 17

// perRound returns, for every round whose cells all arrived, its rate of
// fresh cells and of completed jobs. A round ends when the last of its
// cells arrives and starts when the round before it ended.
func perRound(cellAt []time.Duration, cellRound []int, jobAt []time.Duration, pairs int) (cells, jobs []float64) {
	var end []time.Duration
	var count []int
	for i, t := range cellAt {
		r := cellRound[i]
		for len(end) <= r {
			end, count = append(end, 0), append(count, 0)
		}
		end[r] = max(end[r], t)
		count[r]++
	}
	var prev time.Duration
	for r := 0; r < len(end) && count[r] == pairs; r++ {
		t := max(end[r], prev)
		n := 0
		for _, j := range jobAt {
			if j > prev && j <= t {
				n++
			}
		}
		if t > prev {
			secs := (t - prev).Seconds()
			cells, jobs = append(cells, float64(pairs)/secs), append(jobs, float64(n)/secs)
		}
		prev = t
	}
	return cells, jobs
}

func runDaemon(b *bench) error {
	universe := daemonUniverse()
	order, pairs := daemonRounds(universe, sim.NewRNG(b.seed*0x9E3779B97F4A7C15+3))
	round := map[string]int{}
	for i, u := range order {
		spec, err := universe[u].ToSpec()
		if err != nil {
			return err
		}
		round[spec.Key()] = i / pairs
	}
	// The daemon under load uses dir; the set-ups inside the window start
	// and stop a second daemon on spare, a store identical to dir's before
	// the window, so that every set-up does the same work.
	dir := filepath.Join(b.work, "store")
	spare := filepath.Join(b.work, "setup-store")
	payload, err := prepareStore(universe[order[len(order)-1]], dir, spare)
	if err != nil {
		return err
	}

	var d *daemon
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(dir); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	dr := &daemonRun{
		b: b, url: d.url, universe: universe, order: order, round: round,
		client:     &http.Client{},
		sums:       map[string][sha256.Size]byte{},
		unverified: map[string]json.RawMessage{}, sample: map[string]json.RawMessage{},
		spare: spare, setups: setups,
	}
	defer dr.client.CloseIdleConnections()
	rss := startRSSMonitor()
	t0 := time.Now()
	dr.start = t0
	dr.lastSetup = t0
	loopErr := dr.loop(b.seed, t0.Add(b.seconds))
	peak, err := rss.finish()
	if err := errors.Join(loopErr, err); err != nil {
		d.stop()
		return err
	}
	b.set("setup_s", median(dr.setups))
	b.extra["setup_samples"] = dr.setups

	var stats serve.Stats
	if err := dr.getJSON("/statusz", &stats); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	b.extra["statusz"] = stats
	dr.verifyPayloads()
	b.extra["streams_without_done"] = dr.noDone
	if !b.trace {
		cells, jobs := perRound(dr.cellDone, dr.cellRnd, dr.jobDone, pairs)
		if len(cells) == 0 {
			return fmt.Errorf("the run completed no round of %d cells", pairs)
		}
		b.extra["rounds"] = len(cells)
		b.set("sim_us_per_s", median(cells)*daemonCellUS)
		b.set("jobs_per_s", median(jobs))
		b.set("peak_rss_mb", peak)
		return b.timing("job_ms", dr.fresh)
	}
	if err := b.timing("serve.hit_ms", dr.hits); err != nil {
		return err
	}
	b.samples["job_ms"] = len(dr.fresh)
	mixed := stats.CacheHits > 0 && len(dr.fresh) > 0
	if !mixed {
		b.mismatch("daemon-mixed: %d cache hits and %d fresh jobs; both must be non-zero", stats.CacheHits, len(dr.fresh))
	}
	b.op(!mixed)

	b.set("serve.submit_ms", median(dr.submit))
	b.set("serve.queue_wait_ms", median(dr.queue))
	b.set("serve.cell_ms", median(dr.cell))
	b.set("serve.cache_hit_frac", float64(stats.CacheHits)/float64(stats.CacheHits+stats.CellsRun))
	b.set("serve.rejected", float64(stats.Rejected))
	// Isolated store and WAL drivers with real payloads from this run.
	var payloads []json.RawMessage
	var keys []string
	for k, p := range dr.sample {
		payloads, keys = append(payloads, p), append(keys, k)
	}
	if len(payloads) == 0 {
		payloads, keys = append(payloads, payload), append(keys, "prior")
	}
	get, put, err := storeDriver(filepath.Join(b.work, "iso-store"), keys, payloads)
	if err != nil {
		return err
	}
	b.set("serve.store_get_us", get)
	b.set("serve.store_put_us", put)
	wal, err := walDriver(filepath.Join(b.work, "iso.wal"), dr.universe[:daemonJobCells], 32)
	if err != nil {
		return err
	}
	b.set("serve.wal_accept_us", wal)
	return nil
}

// loop runs one closed-loop client per runner until the deadline and
// returns when every one has stopped.
func (dr *daemonRun) loop(seed uint64, deadline time.Time) error {
	errs := make(chan error, poolJobs())
	for c := 0; c < poolJobs(); c++ {
		rng := sim.NewRNG(seed*31 + 5 + uint64(c)*0x9E3779B97F4A7C15)
		go func() { errs <- dr.runClient(rng, deadline) }()
	}
	var err error
	for c := 0; c < poolJobs(); c++ {
		err = errors.Join(err, <-errs)
	}
	return err
}

// runClient is one closed-loop client: submit, wait for the result,
// repeat until the deadline. It alternates a fresh job, drawing new specs
// in the universe's round order, with a repeat of a seeded choice of
// completed fresh jobs, which the daemon must answer from its store. The
// one-to-one mix is chosen so that both kinds get samples, not taken
// from a record of how memnetd is used. Every setupEvery, between jobs,
// one client times a set-up on the spare store while the other waits.
func (dr *daemonRun) runClient(rng *sim.RNG, deadline time.Time) error {
	wantHit := false
	for time.Now().Before(deadline) {
		if err := dr.maybeSetup(); err != nil {
			return err
		}
		dr.mu.Lock()
		var runs []exp.SpecJSON
		if wantHit && len(dr.done) > 0 {
			runs = dr.done[rng.Intn(len(dr.done))]
		} else {
			if dr.next+daemonJobCells > len(dr.order) {
				dr.mu.Unlock()
				return fmt.Errorf("the run simulated all %d cells of the daemon universe; it needs more cells", len(dr.order))
			}
			for k := 0; k < daemonJobCells; k++ {
				runs = append(runs, dr.universe[dr.order[dr.next]])
				dr.next++
			}
		}
		dr.mu.Unlock()
		dr.pause.RLock()
		err := dr.job(runs)
		dr.pause.RUnlock()
		dr.mu.Lock()
		if err != nil {
			dr.b.mismatch("job %v: %v", runs, err)
		}
		dr.b.op(err != nil)
		dr.mu.Unlock()
		if err == nil {
			wantHit = !wantHit
		}
	}
	return nil
}

// maybeSetup times one set-up on the spare store when setupEvery has
// passed since the last one, then verifies the results received since
// the last pause. It waits for every job in flight to end and holds new
// jobs back, and moves the window's start on by its pause.
func (dr *daemonRun) maybeSetup() error {
	dr.mu.Lock()
	due := time.Since(dr.lastSetup) >= setupEvery
	if due {
		dr.lastSetup = time.Now()
	}
	dr.mu.Unlock()
	if !due {
		return nil
	}
	dr.pause.Lock()
	defer dr.pause.Unlock()
	t0 := time.Now()
	d, err := startDaemon(dr.spare)
	if err != nil {
		return err
	}
	setup := time.Since(t0).Seconds()
	if err := d.stop(); err != nil {
		return err
	}
	dr.mu.Lock()
	defer dr.mu.Unlock()
	dr.verifyPayloads()
	dr.setups = append(dr.setups, setup)
	dr.lastSetup = time.Now()
	dr.start = dr.start.Add(dr.lastSetup.Sub(t0))
	return nil
}

// event is one server-sent event and when it arrived.
type event struct {
	typ  string
	data []byte
	at   time.Time
}

// job submits runs with ?stream=1, follows the stream to the done event,
// fetches the results and checks them.
func (dr *daemonRun) job(runs []exp.SpecJSON) error {
	keys := make([]string, len(runs))
	for i, sj := range runs {
		spec, err := sj.ToSpec()
		if err != nil {
			return err
		}
		keys[i] = spec.Key()
	}
	body, err := json.Marshal(serve.SubmitRequest{Runs: runs})
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := dr.client.Post(dr.url+"/jobs?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	ack := time.Now()
	events, err := readEvents(resp)
	if err != nil {
		return err
	}
	var id string
	var running time.Time
	var cells []event
	sawDone := false
	for _, ev := range events {
		switch ev.typ {
		case "status":
			var st serve.Status
			if err := json.Unmarshal(ev.data, &st); err != nil {
				return err
			}
			id = st.ID
			if st.State == serve.StateRunning {
				running = ev.at
			}
		case "result":
			cells = append(cells, ev)
		case "done":
			sawDone = true
		}
	}
	if id == "" {
		return fmt.Errorf("stream carried no job status")
	}
	// The done event's summary is taken before the job's terminal state
	// is set, so the result endpoint supplies the final status. It also
	// covers a stream that ends without its done event, which serve
	// allows when a subscriber arrives between the terminal state and the
	// done publish; such streams are counted, not failed.
	var out struct {
		Status  serve.Status      `json:"status"`
		Results []json.RawMessage `json:"results"`
	}
	if err := dr.getJSON("/jobs/"+id+"/result", &out); err != nil {
		return err
	}
	lat := float64(time.Since(t0)) / 1e6
	final := out.Status
	if final.State != serve.StateDone {
		return fmt.Errorf("job %s ended %q: %s", final.ID, final.State, final.Error)
	}
	if len(out.Results) != len(runs) || len(cells) != len(runs) || running.IsZero() {
		return fmt.Errorf("job %s: %d results, %d result events for %d runs", final.ID, len(out.Results), len(cells), len(runs))
	}

	dr.mu.Lock()
	defer dr.mu.Unlock()
	if !sawDone {
		dr.noDone++
	}
	prev := running
	for _, ev := range cells {
		var cr struct {
			Index  int    `json:"index"`
			Key    string `json:"key"`
			Cached bool   `json:"cached"`
		}
		if err := json.Unmarshal(ev.data, &cr); err != nil {
			return err
		}
		if cr.Index < 0 || cr.Index >= len(runs) || cr.Key != keys[cr.Index] {
			return fmt.Errorf("job %s: result event %s does not match the submission", final.ID, ev.data)
		}
		if err := dr.checkPayload(cr.Key, out.Results[cr.Index], cr.Cached); err != nil {
			return err
		}
		if !cr.Cached {
			dr.cell = append(dr.cell, float64(ev.at.Sub(prev))/1e6)
			dr.cellDone = append(dr.cellDone, ev.at.Sub(dr.start))
			dr.cellRnd = append(dr.cellRnd, dr.round[cr.Key])
		}
		prev = ev.at
	}
	dr.jobDone = append(dr.jobDone, time.Since(dr.start))
	dr.submit = append(dr.submit, float64(ack.Sub(t0))/1e6)
	dr.queue = append(dr.queue, float64(running.Sub(ack))/1e6)
	switch final.CacheHits {
	case len(runs):
		dr.hits = append(dr.hits, lat)
	case 0:
		dr.fresh = append(dr.fresh, lat)
		dr.done = append(dr.done, runs)
	default:
		return fmt.Errorf("job %s: %d of its %d cells were store hits", final.ID, final.CacheHits, len(runs))
	}
	return nil
}

// samplePayloads is how many results the isolated store driver replays.
const samplePayloads = 32

// checkPayload checks one cell's result bytes as they arrive: a cached
// result must be byte-identical (by SHA-256) to the fresh result
// delivered for its key. verifyPayloads checks the fresh results later.
func (dr *daemonRun) checkPayload(key string, raw json.RawMessage, cached bool) error {
	sum := sha256.Sum256(raw)
	if first, ok := dr.sums[key]; ok {
		if first != sum {
			return fmt.Errorf("%s: payload (cached=%v) differs from the first fresh payload", key, cached)
		}
		return nil
	}
	if cached {
		return fmt.Errorf("%s: cache hit before any fresh result", key)
	}
	dr.sums[key] = sum
	dr.unverified[key] = append(json.RawMessage(nil), raw...)
	if len(dr.sample) < samplePayloads {
		dr.sample[key] = dr.unverified[key]
	}
	return nil
}

// verifyPayloads checks every fresh result not yet checked: it must
// decode, pass the power check and match the committed digest. It runs
// in the set-up pauses and after the window, when no job is in flight,
// so that the clients' decoding does not compete with the runners.
func (dr *daemonRun) verifyPayloads() {
	for key, raw := range dr.unverified {
		delete(dr.unverified, key)
		err := func() error {
			var res exp.Result
			if err := json.Unmarshal(raw, &res); err != nil {
				return fmt.Errorf("decode result: %w", err)
			}
			if err := res.Power.Check(); err != nil {
				return fmt.Errorf("power breakdown: %w", err)
			}
			if want, got := dr.b.digests[key], modelDigest(res); want != got {
				return fmt.Errorf("model digest %s, committed %q", got, want)
			}
			return nil
		}()
		if err != nil {
			dr.b.mismatch("%s: %v", key, err)
		}
		dr.b.op(err != nil)
	}
}

// readEvents reads a server-sent event stream to its end.
func readEvents(resp *http.Response) ([]event, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var events []event
	var cur event
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(line[len("data: "):])
		case line == "" && cur.typ != "":
			cur.at = time.Now()
			events = append(events, cur)
			cur = event{}
		}
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func (dr *daemonRun) getJSON(path string, v any) error {
	resp, err := dr.client.Get(dr.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// storeDriver times Store.Put then Store.Get of every payload in a fresh
// store, returning the median µs of each.
func storeDriver(dir string, keys []string, payloads []json.RawMessage) (get, put float64, err error) {
	store, err := serve.NewStore(dir)
	if err != nil {
		return 0, 0, err
	}
	var gets, puts []float64
	for rep := 0; rep < isolatedReps; rep++ {
		for i, p := range payloads {
			t0 := time.Now()
			if err := store.Put(keys[i], p); err != nil {
				return 0, 0, err
			}
			puts = append(puts, float64(time.Since(t0))/1e3)
		}
		for i, p := range payloads {
			t0 := time.Now()
			raw, hit, err := store.Get(keys[i])
			gets = append(gets, float64(time.Since(t0))/1e3)
			if err != nil || !hit || !bytes.Equal(raw, p) {
				return 0, 0, fmt.Errorf("store get %s: hit=%v err=%v", keys[i], hit, err)
			}
		}
	}
	return median(gets), median(puts), os.RemoveAll(dir)
}

// walDriver times AcceptLog.Accept of n job records (each followed by
// its Finish tombstone), returning the median µs of Accept.
func walDriver(path string, runs []exp.SpecJSON, n int) (float64, error) {
	log, _, err := serve.OpenAcceptLog(path, nil)
	if err != nil {
		return 0, err
	}
	var accepts []float64
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j%d", i+1)
		t0 := time.Now()
		if err := log.Accept(serve.AcceptedJob{ID: id, Runs: runs}); err != nil {
			log.Close()
			return 0, err
		}
		accepts = append(accepts, float64(time.Since(t0))/1e3)
		if err := log.Finish(id); err != nil {
			log.Close()
			return 0, err
		}
	}
	return median(accepts), log.Close()
}
