package main

import (
	"context"
	"fmt"
	"time"

	"memnet/internal/dram"
	"memnet/internal/exp"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/power"
	"memnet/internal/sim"
	"memnet/internal/workload"
)

// isolatedReps is how many times each isolated driver runs; the
// per-layer value is the median.
const isolatedReps = 3

// tracedSweep is the per-layer run of a sweep workload. Each round runs
// the cell universe three ways: through the exp pool untraced, then
// sequentially untraced and traced, cell by cell, interleaved so that
// host drift hits both alike. All three must agree exactly. Isolated
// drivers, sized from the workload, then time the layers that have no
// public boundary inside a cell.
func tracedSweep(b *bench, st *sweepState) error {
	ctx := context.Background()
	tr := newTracer()
	jobs := poolJobs()
	var effs, tracedRate, plainRate, runPerEv, inject, complete, epoch, topo, netw, fe, coreNS []float64
	var last []cellTrace
	roundsEnd := time.Now().Add(b.seconds * 7 / 10)
	for round := 0; round == 0 || time.Now().Before(roundsEnd); round++ {
		t0 := time.Now()
		pooled, errs := exp.RunSpecsAllCtx(ctx, st.cells, jobs)
		poolNS := float64(time.Since(t0))
		var plainNS, tracedNS, simUS float64
		traces := make([]cellTrace, len(st.cells))
		for i, spec := range st.cells {
			t1 := time.Now()
			plain, perr := exp.RunBudgeted(ctx, spec, exp.Budget{})
			plainNS += float64(time.Since(t1))
			res, ct, terr := runTraced(spec, tr, round*len(st.cells)+i)
			if err := firstErr(errs[i], perr, terr); err != nil {
				return fmt.Errorf("cell %s: %w", spec.Key(), err)
			}
			tracedNS += float64(ct.wallNS)
			simUS += ct.modeledUS
			traces[i] = ct
			b.op(!agree(b, st, i, pooled[i], plain, res))
		}
		effs = append(effs, plainNS/(poolNS*float64(jobs)))
		tracedRate = append(tracedRate, simUS/(tracedNS/1e9))
		plainRate = append(plainRate, simUS/(plainNS/1e9))
		var s cellTrace
		for _, ct := range traces {
			s.add(ct)
		}
		n := float64(len(traces))
		runPerEv = append(runPerEv, float64(s.runNS-s.injectNS-s.completeNS-s.epochNS)/float64(s.events))
		inject = append(inject, ratio(s.injectNS, s.injects))
		complete = append(complete, ratio(s.completeNS, s.completes))
		epoch = append(epoch, ratio(s.epochNS, s.epochs))
		topo = append(topo, float64(s.topoNS)/n)
		netw = append(netw, float64(s.netNS)/n)
		fe = append(fe, float64(s.feNS)/n)
		coreNS = append(coreNS, float64(s.coreNS)/n)
		last = traces
	}
	b.spans = tr.spans

	// Counts are exact and identical every round; report one pass.
	var s cellTrace
	var pending, lpa float64
	for _, ct := range last {
		s.add(ct)
		pending += float64(ct.pendingAtWarmup)
		lpa += ct.linksPerAccess
	}
	n := float64(len(last))
	ev := float64(s.events)
	b.set("sim.events", ev)
	b.set("sim.events_per_sim_us", ev/s.modeledUS)
	b.set("sim.run_ns_per_event", median(runPerEv))
	b.set("link.busy_frac", float64(s.linkBusy)/float64(s.linkTotal))
	b.set("link.off_frac", float64(s.linkOff)/float64(s.linkTotal))
	b.set("link.bytes", float64(s.linkBytes))
	b.set("link.turnoffs_per_kevent", float64(s.turnoffs)/ev*1e3)
	b.set("network.inject_ns", median(inject))
	b.set("network.reads", float64(s.injReads))
	b.set("network.writes", float64(s.injWrites))
	b.set("network.links_per_access", lpa/n)
	b.set("dram.reads", float64(s.dramReads))
	b.set("dram.writes", float64(s.dramWrites))
	b.set("dram.busy_frac", float64(s.dramBusy)/float64(s.dramCapacity))
	b.set("dram.accesses_per_kevent", float64(s.dramReads+s.dramWrites)/ev*1e3)
	b.set("workload.complete_ns", median(complete))
	b.set("workload.issued", float64(s.issued))
	b.set("core.epoch_ns", median(epoch))
	b.set("core.epochs", float64(s.mgrEpochs))
	b.set("core.violations", float64(s.violations))
	b.set("core.grants", float64(s.grants))
	b.set("setup.topology_ns", median(topo))
	b.set("setup.network_ns", median(netw))
	b.set("setup.frontend_ns", median(fe))
	b.set("setup.core_ns", median(coreNS))
	b.set("exp.pool_efficiency", median(effs))
	tRate, pRate := median(tracedRate), median(plainRate)
	b.set("trace.sim_us_per_s", tRate)
	b.set("trace.untraced_sim_us_per_s", pRate)
	b.set("trace.overhead_frac", 1-tRate/pRate)
	b.extra["rounds"] = len(effs)
	if err := checkSplit(b, s); err != nil {
		return err
	}

	// Isolated drivers, sized from the workload: the kernel queue holds
	// as many pending events as the cells did at the end of warmup, the
	// link chain is as deep as the deepest cell network, and DRAM and the
	// address sampler draw from the workload's own profiles.
	profiles := map[string]*workload.Profile{}
	depth, readFrac := 1, 0.0
	for _, c := range st.cells {
		profiles[c.Workload.Name] = c.Workload
		if m := c.Workload.Modules(c.Size.ChunkGB()); m > depth {
			depth = m
		}
	}
	for _, p := range profiles {
		readFrac += p.ReadFraction / float64(len(profiles))
	}
	budget := b.seconds / 100
	b.set("sim.queue_ns_per_op", repeatMedian(func() float64 { return queueDriver(int(pending/n), budget) }))
	b.set("link.enqueue_ns", repeatMedian(func() float64 { return linkDriver(depth, readFrac, budget) }))
	b.set("dram.access_ns", repeatMedian(func() float64 { return dramDriver(st.cells, budget) }))
	b.set("workload.sample_ns", repeatMedian(func() float64 { return samplerDriver(st.cells, budget) }))
	return nil
}

// checkSplit confirms that one traced pass bears out its sweep's reason
// for being. On sweep-deep no link turns off and the management core
// runs no epoch. On sweep-shallow links turn off and epochs run, and
// both link turn-offs and DRAM accesses per event exceed those of the
// deep cells at the same seed, traced once here for the comparison.
func checkSplit(b *bench, s cellTrace) error {
	switch b.workload {
	case "sweep-deep":
		ok := s.linkOff == 0 && s.turnoffs == 0 && s.epochs == 0 && s.mgrEpochs == 0
		if !ok {
			b.mismatch("sweep-deep: links off for %d ps, %d turn-offs, %d policy spans, %d manager epochs; all must be 0",
				s.linkOff, s.turnoffs, s.epochs, s.mgrEpochs)
		}
		b.op(!ok)
	case "sweep-shallow":
		var d cellTrace
		tr := newTracer()
		for i, spec := range sweepCells("sweep-deep", b.seed) {
			_, ct, err := runTraced(spec, tr, i)
			if err != nil {
				return fmt.Errorf("deep reference cell %s: %w", spec.Key(), err)
			}
			d.add(ct)
		}
		perK := func(n, events uint64) float64 { return float64(n) / float64(events) * 1e3 }
		offS, offD := perK(s.turnoffs, s.events), perK(d.turnoffs, d.events)
		dramS, dramD := perK(s.dramReads+s.dramWrites, s.events), perK(d.dramReads+d.dramWrites, d.events)
		b.extra["split_deep_turnoffs_per_kevent"] = offD
		b.extra["split_deep_dram_per_kevent"] = dramD
		ok := s.epochs > 0 && s.mgrEpochs > 0 && offS > offD && dramS > dramD
		if !ok {
			b.mismatch("sweep-shallow: %d policy spans, %d manager epochs; turn-offs %.3f vs deep %.3f and DRAM accesses %.3f vs deep %.3f per kevent; epochs must run and both must exceed deep",
				s.epochs, s.mgrEpochs, offS, offD, dramS, dramD)
		}
		b.op(!ok)
	}
	return nil
}

// agree checks that the pooled, sequential untraced and traced results
// of cell i are identical, and the traced one passes the cell checks.
func agree(b *bench, st *sweepState, i int, pooled, plain, traced exp.Result) bool {
	var ds [3]string
	for k, r := range []exp.Result{pooled, plain, traced} {
		d, err := fullDigest(r)
		if err != nil {
			b.mismatch("%v", err)
			return false
		}
		ds[k] = d
	}
	if ds[0] != ds[1] || ds[1] != ds[2] {
		b.mismatch("%s: pooled %s, sequential %s and traced %s results differ", st.cells[i].Key(), ds[0], ds[1], ds[2])
		return false
	}
	return st.checkCell(i, traced)
}

func (s *cellTrace) add(o cellTrace) {
	s.runNS += o.runNS
	s.topoNS += o.topoNS
	s.netNS += o.netNS
	s.coreNS += o.coreNS
	s.feNS += o.feNS
	s.injects += o.injects
	s.injectNS += o.injectNS
	s.completes += o.completes
	s.completeNS += o.completeNS
	s.epochs += o.epochs
	s.epochNS += o.epochNS
	s.events += o.events
	s.modeledUS += o.modeledUS
	s.linkBusy += o.linkBusy
	s.linkOff += o.linkOff
	s.linkTotal += o.linkTotal
	s.linkBytes += o.linkBytes
	s.turnoffs += o.turnoffs
	s.injReads += o.injReads
	s.injWrites += o.injWrites
	s.issued += o.issued
	s.dramReads += o.dramReads
	s.dramWrites += o.dramWrites
	s.dramBusy += o.dramBusy
	s.dramCapacity += o.dramCapacity
	s.mgrEpochs += o.mgrEpochs
	s.violations += o.violations
	s.grants += o.grants
}

func ratio(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func repeatMedian(f func() float64) float64 {
	v := make([]float64, isolatedReps)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

// hop is one pending event of the queue driver; it reschedules itself
// each time it fires, so the queue holds a constant number of events.
type hop struct {
	k      *sim.Kernel
	rng    *sim.RNG
	delays []sim.Duration
}

func (h *hop) Act() { h.k.AfterAction(h.delays[h.rng.Intn(len(h.delays))], h) }

// delayMix weights event delays like the benchmark sweep's event census:
// link serialization and SERDES+router deliveries dominate, then ROO
// off-checks, DRAM accesses and front-end issue jitter.
func delayMix() []sim.Duration {
	var mix []sim.Duration
	add := func(d sim.Duration, weight int) {
		for i := 0; i < weight; i++ {
			mix = append(mix, d)
		}
	}
	add(5*link.FlitTimeFull, 36)
	add(link.SERDESBase+link.RouterLatency(), 36)
	for _, th := range link.ROOThresholds {
		add(th, 3)
	}
	add(dram.DefaultConfig().NominalReadLatency(), 10)
	add(5*sim.Nanosecond, 5)
	return mix
}

// queueDriver times ScheduleAction+Step on a kernel holding pending
// events, in host ns per event.
func queueDriver(pending int, budget time.Duration) float64 {
	if pending < 1 {
		pending = 1
	}
	k := sim.NewKernel()
	mix := delayMix()
	rng := sim.NewRNG(7)
	hops := make([]hop, pending)
	for i := range hops {
		hops[i] = hop{k: k, rng: rng, delays: mix}
		k.AfterAction(mix[rng.Intn(len(mix))], &hops[i])
	}
	return timeSteps(budget, func() { k.Step() })
}

// timeSteps calls step in batches until budget elapses and returns host
// ns per call.
func timeSteps(budget time.Duration, step func()) float64 {
	const batch = 4096
	n := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		for i := 0; i < batch; i++ {
			step()
		}
		n += batch
	}
	return float64(time.Since(t0)) / float64(n)
}

// linkDriver times packets through a chain of depth full-power links:
// link.New, Enqueue and the transmit/deliver events that drain it, in
// host ns per packet-hop. Eight packets circulate, reads and writes in
// the workload's read share.
func linkDriver(depth int, readFrac float64, budget time.Duration) float64 {
	k := sim.NewKernel()
	cfg := link.Config{Mechanism: link.MechNone, Wakeup: link.WakeupDefault,
		FullWatts: power.DefaultModel().ParamsForRadix(false).LinkFullWatts()}
	links := make([]*link.Link, depth)
	for i := range links {
		links[i] = link.New(k, cfg, i, link.DirRequest, i, i-1, i, i+1)
	}
	hops := 0
	for i := range links {
		if i+1 < depth {
			next := links[i+1]
			links[i].Deliver = func(p *packet.Packet) { hops++; next.Enqueue(p) }
		} else {
			head := links[0]
			links[i].Deliver = func(p *packet.Packet) { hops++; head.Enqueue(p) }
		}
	}
	rng := sim.NewRNG(11)
	for id := 0; id < 8; id++ {
		kind := packet.WriteReq
		if rng.Float64() < readFrac {
			kind = packet.ReadReq
		}
		links[0].Enqueue(&packet.Packet{ID: uint64(id), Kind: kind, Src: packet.ProcessorID, Dst: depth - 1})
	}
	t0 := time.Now()
	for time.Since(t0) < budget {
		for i := 0; i < 4096; i++ {
			k.Step()
		}
	}
	return float64(time.Since(t0)) / float64(hops)
}

// dramAccess is one outstanding access of the DRAM driver; on completion
// it issues the next one.
type dramAccess struct {
	drv *dramDrv
}

type dramDrv struct {
	k        *sim.Kernel
	d        *dram.HMCDRAM
	rng      *sim.RNG
	samplers []*workload.Sampler
	readFrac float64
	done     int
}

func (a *dramAccess) AccessDone() {
	a.drv.done++
	a.drv.issue(a)
}

func (drv *dramDrv) issue(a *dramAccess) {
	addr := drv.samplers[drv.rng.Intn(len(drv.samplers))].Sample(drv.rng)
	if !drv.d.AccessAction(addr, drv.rng.Float64() < drv.readFrac, a) {
		drv.k.After(sim.Nanosecond, func() { drv.issue(a) })
	}
}

// dramDriver times one module's DRAM under a closed loop of 32 accesses
// with addresses from the workload's profiles, in host ns per completed
// access (dram.New, AccessAction and its issue/burst events).
func dramDriver(cells []exp.Spec, budget time.Duration) float64 {
	k := sim.NewKernel()
	drv := &dramDrv{k: k, d: dram.New(k, dram.DefaultConfig()), rng: sim.NewRNG(13)}
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Workload.Name] {
			seen[c.Workload.Name] = true
			drv.samplers = append(drv.samplers, workload.NewSampler(c.Workload, packet.LineBytes))
			drv.readFrac += c.Workload.ReadFraction
		}
	}
	drv.readFrac /= float64(len(drv.samplers))
	for i := 0; i < 32; i++ {
		drv.issue(&dramAccess{drv: drv})
	}
	t0 := time.Now()
	for time.Since(t0) < budget {
		for i := 0; i < 4096; i++ {
			k.Step()
		}
	}
	return float64(time.Since(t0)) / float64(drv.done)
}

// samplerDriver times Sampler.Sample over the workload's profiles.
func samplerDriver(cells []exp.Spec, budget time.Duration) float64 {
	var samplers []*workload.Sampler
	for _, c := range cells {
		samplers = append(samplers, workload.NewSampler(c.Workload, packet.LineBytes))
	}
	rng := sim.NewRNG(17)
	i := 0
	return timeSteps(budget, func() {
		sampleSink += samplers[i%len(samplers)].Sample(rng)
		i++
	})
}

// sampleSink keeps the sampler driver's results live.
var sampleSink uint64
