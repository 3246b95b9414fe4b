package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"memnet/internal/exp"
	"memnet/internal/power"
	"memnet/internal/sim"
)

// digestFile holds the committed model digests, keyed by spec key, for
// every sweep cell at the default seed and every daemon cell.
const digestFile = "digest.json"

// modelView is the part of a Result the committed digest covers: what
// the model computes. Events and every wall time are left out, so a
// change that removes kernel events but keeps the model's answers still
// matches.
type modelView struct {
	Power          power.Breakdown
	PerHMC         power.Breakdown
	Throughput     float64
	ChannelUtil    float64
	LinkUtil       float64
	LinksPerAccess float64
	AvgReadLatency sim.Duration
	P50, P95, P99  sim.Duration
	Violations     uint64
	Granted        uint64
}

// modelDigest is a short hash of res's modelled quantities. JSON encodes
// floats in their shortest exact form, so equal digests mean bit-equal
// values.
func modelDigest(res exp.Result) string {
	b, err := json.Marshal(modelView{
		Power: res.Power, PerHMC: res.PerHMC, Throughput: res.Throughput,
		ChannelUtil: res.ChannelUtil, LinkUtil: res.LinkUtil, LinksPerAccess: res.LinksPerAccess,
		AvgReadLatency: res.AvgReadLatency, P50: res.P50, P95: res.P95, P99: res.P99,
		Violations: res.Violations, Granted: res.Granted,
	})
	if err != nil {
		panic(err) // plain numeric struct: cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// fullDigest hashes the whole Result, events included: two runs of one
// spec on the same code must agree on it exactly.
func fullDigest(res exp.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("encode result %s: %w", res.Spec.Key(), err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

func loadDigests(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read digests: %w", err)
	}
	m := map[string]string{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return m, nil
}

// writeDigests recomputes the committed digest file: every sweep cell at
// the default seed and every cell of the daemon's spec universe.
func writeDigests(path string) error {
	var specs []exp.Spec
	for _, w := range []string{"sweep-deep", "sweep-shallow"} {
		specs = append(specs, sweepCells(w, defaultSeed)...)
	}
	for _, sj := range daemonUniverse() {
		s, err := sj.ToSpec()
		if err != nil {
			return err
		}
		specs = append(specs, s)
	}
	results, errs := exp.RunSpecsAll(specs, 0)
	m := map[string]string{}
	for i, res := range results {
		if errs[i] != nil {
			return fmt.Errorf("digest cell %s: %w", specs[i].Key(), errs[i])
		}
		m[specs[i].Key()] = modelDigest(res)
	}
	// Sorted keys, one per line, keep diffs readable.
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
