package main

import (
	"fmt"
	"time"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/link"
	"memnet/internal/network"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// span is one timed interval at a layer boundary. Spans of one cell share
// Trace; Parent indexes the enclosing span in the same slice (-1 = root).
// Times are nanoseconds since the tracer's origin.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. Boundaries
// crossed hundreds of thousands of times per cell (injection, completion)
// are kept as counts and summed durations instead of one span each.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, trace, parent int) int {
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) int64 {
	t.spans[i].End = t.now()
	return t.spans[i].End - t.spans[i].Start
}

// cellTrace is what one traced cell measured at its boundaries.
type cellTrace struct {
	wallNS                       int64
	runNS                        int64 // both kernel.Run calls
	topoNS, netNS, coreNS, feNS  int64
	injects, injectNS            int64
	completes, completeNS        int64
	epochs, epochNS              int64
	events                       uint64
	pendingAtWarmup              int
	modeledUS                    float64
	linkBusy, linkOff, linkTotal sim.Duration
	linkBytes, turnoffs          uint64
	injReads, injWrites, issued  uint64
	dramReads, dramWrites        uint64
	dramBusy, dramCapacity       sim.Duration
	mgrEpochs                    uint64
	violations, grants           uint64
	linksPerAccess               float64
}

// timedInjector is the front end's injection target: it forwards to the
// network and times each call.
type timedInjector struct {
	net *network.Network
	tr  *tracer
	ct  *cellTrace
}

func (ti *timedInjector) InjectRead(addr uint64, core int) {
	s := ti.tr.now()
	ti.net.InjectReadID(addr, core)
	ti.ct.injectNS += ti.tr.now() - s
	ti.ct.injects++
}

func (ti *timedInjector) InjectWrite(addr uint64, core int) {
	s := ti.tr.now()
	ti.net.InjectWriteID(addr, core)
	ti.ct.injectNS += ti.tr.now() - s
	ti.ct.injects++
}

// timedPolicy wraps a management policy and times each epoch's
// reconfiguration.
type timedPolicy struct {
	inner core.Policy
	tr    *tracer
	ct    *cellTrace
	trace int
	run   *int // index of the kernel.Run span in progress
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Reconfigure(m *core.Manager, e *core.EpochData) []sim.Duration {
	i := p.tr.begin("core.epoch", p.trace, *p.run)
	ams := p.inner.Reconfigure(m, e)
	p.ct.epochNS += p.tr.end(i)
	p.ct.epochs++
	return ams
}

// specSeed derives the front end's seed exactly as exp does for a spec:
// FNV-1a over workload, topology and size, xor the seed salt. Mechanism
// and policy stay out so that comparisons against full power are paired.
func specSeed(s exp.Spec) uint64 {
	h := uint64(1469598103934665603)
	for _, str := range []string{s.Workload.Name, s.Topology.String(), s.Size.String()} {
		for i := 0; i < len(str); i++ {
			h ^= uint64(str[i])
			h *= 1099511628211
		}
	}
	return h ^ s.SeedSalt
}

// runTraced builds and runs one cell the way exp.RunBudgeted does for a
// fault-free, unaudited, unmetered spec, recording spans at every
// boundary the public API exposes. Its Result must equal RunBudgeted's.
func runTraced(spec exp.Spec, tr *tracer, trace int) (exp.Result, cellTrace, error) {
	var ct cellTrace
	if spec.Workload == nil {
		return exp.Result{}, ct, fmt.Errorf("spec needs a workload")
	}
	if len(spec.Faults.Events) > 0 || spec.AuditEvery > 0 || spec.MetricsInterval > 0 || spec.Watchdog ||
		spec.RequestTimeout > 0 || spec.DRAM != nil || spec.PeakWatts > 0 {
		return exp.Result{}, ct, fmt.Errorf("traced cells support plain specs only: %s", spec.Key())
	}
	if spec.SimTime <= 0 || spec.Warmup < 0 {
		return exp.Result{}, ct, fmt.Errorf("traced cells need explicit SimTime and Warmup: %s", spec.Key())
	}
	if spec.Wakeup <= 0 {
		spec.Wakeup = link.WakeupDefault
	}
	cell := tr.begin("cell", trace, -1)
	kernel := sim.NewKernel()
	nModules := spec.Workload.Modules(spec.Size.ChunkGB())

	i := tr.begin("setup.topology", trace, cell)
	topo, err := topology.Build(spec.Topology, nModules)
	ct.topoNS = tr.end(i)
	if err != nil {
		return exp.Result{}, ct, err
	}

	i = tr.begin("setup.network", trace, cell)
	netCfg := network.DefaultConfig()
	netCfg.Mechanism = spec.Mech.BW
	netCfg.ROO = spec.Mech.ROO
	netCfg.Wakeup = spec.Wakeup
	netCfg.ChunkBytes = uint64(spec.Size.ChunkGB()) << 30
	netCfg.Interleave = spec.Interleave
	netCfg.Retrain = spec.RetrainLatency
	netCfg.MaxCRCRetries = spec.CRCRetryLimit
	net := network.New(kernel, topo, netCfg)
	ct.netNS = tr.end(i)

	run := -1
	i = tr.begin("setup.core", trace, cell)
	mcfg := core.DefaultConfig(spec.Policy, spec.Alpha)
	mcfg.CollectLinkHours = spec.CollectLinkHours
	if spec.Policy == core.PolicyUnaware {
		mcfg.Custom = &timedPolicy{inner: &core.UnawarePolicy{}, tr: tr, ct: &ct, trace: trace, run: &run}
	}
	mgr := core.Attach(kernel, net, mcfg)
	ct.coreNS = tr.end(i)
	for _, l := range net.Links {
		prev := l.OnTurnOff
		l.OnTurnOff = func() {
			ct.turnoffs++
			if prev != nil {
				prev()
			}
		}
	}

	i = tr.begin("setup.frontend", trace, cell)
	fe, err := workload.NewFrontEndOver(kernel, &timedInjector{net: net, tr: tr, ct: &ct}, spec.Workload,
		workload.DefaultFrontEndConfig(specSeed(spec)),
		workload.EstimateReadLatency(net, spec.Workload), workload.ChannelBandwidthBytesPerSec())
	if err != nil {
		return exp.Result{}, ct, err
	}
	net.OnReadComplete = func(p *packet.Packet) {
		s := tr.now()
		fe.HandleReadComplete(p)
		ct.completeNS += tr.now() - s
		ct.completes++
	}
	net.OnWriteComplete = func(p *packet.Packet) {
		s := tr.now()
		fe.HandleWriteComplete(p)
		ct.completeNS += tr.now() - s
		ct.completes++
	}
	ct.feNS = tr.end(i)
	fe.Start()

	run = tr.begin("sim.run.warmup", trace, cell)
	kernel.Run(spec.Warmup)
	ct.runNS += tr.end(run)
	ct.pendingAtWarmup = kernel.Pending()
	snap0 := net.TakeSnapshot()
	net.LatencyHist().Reset()
	run = tr.begin("sim.run.measure", trace, cell)
	kernel.Run(spec.Warmup + spec.SimTime)
	ct.runNS += tr.end(run)
	snap1 := net.TakeSnapshot()

	res := exp.Result{
		Spec:           spec,
		Modules:        nModules,
		Power:          network.IntervalPower(snap0, snap1),
		Throughput:     network.Throughput(snap0, snap1),
		ChannelUtil:    network.ChannelUtilization(snap0, snap1),
		LinkUtil:       network.AvgLinkUtilization(snap0, snap1),
		LinksPerAccess: network.LinksPerAccess(snap0, snap1),
		AvgReadLatency: network.AvgReadLatency(snap0, snap1),
		P50:            net.LatencyHist().Percentile(0.50),
		P95:            net.LatencyHist().Percentile(0.95),
		P99:            net.LatencyHist().Percentile(0.99),
		Hist:           mgr.Hist,
		Events:         kernel.Processed(),
		Slots:          fe.Slots(),
	}
	res.PerHMC = res.Power.Scale(1 / float64(nModules))
	res.Violations, res.Granted = mgr.Violations()
	res.Faults = net.FaultStats()
	res.FrontEndFaults = fe.FaultStats()
	res.Availability = net.AvailabilityReport()
	res.TimedOutIDs = append([]uint64(nil), fe.TimedOutIDs()...)
	ct.wallNS = tr.end(cell)

	end := kernel.Now()
	ct.events = kernel.Processed()
	ct.modeledUS = float64(spec.Warmup+spec.SimTime) / float64(sim.Microsecond)
	for _, l := range net.Links {
		st := l.StateTimes(end)
		for _, d := range st {
			ct.linkTotal += d
		}
		ct.linkOff += st[link.StateOff]
		ct.linkBusy += l.BusyTime()
		ct.linkBytes += l.Bytes()
	}
	ct.injReads, ct.injWrites = net.Injected()
	r, w := fe.Issued()
	ct.issued = r + w
	for _, m := range net.Modules {
		st := m.DRAM.Stats()
		ct.dramReads += st.Reads
		ct.dramWrites += st.Writes
		ct.dramBusy += st.BusyTime
		ct.dramCapacity += end * sim.Duration(m.DRAM.Config().Vaults)
	}
	ct.mgrEpochs = mgr.Epochs()
	ct.violations, ct.grants = res.Violations, res.Granted
	ct.linksPerAccess = res.LinksPerAccess
	return res, ct, nil
}
