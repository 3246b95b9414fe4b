package exp

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"memnet/internal/dram"
	"memnet/internal/fault"
	"memnet/internal/sim"
)

// keyExcluded lists the Spec fields deliberately left out of Key(),
// each with its reason. Journals and the daemon's store are keyed by
// Key(), so a field missing from it without a reason here makes
// distinct cells collide.
var keyExcluded = map[string]string{
	"AuditEvery": "the auditor is observational: audited and unaudited runs share cache and journal entries",
}

// keyedWith lists the fields keyed only together with their enabling
// field: alone they change nothing, so they leave the key alone too.
var keyedWith = map[string]func(*Spec){
	"MaxRetries": func(s *Spec) { s.RequestTimeout = 2 * sim.Microsecond },
}

// setKeyField gives field name of s a value that differs from the zero
// value, reporting false when the field's type needs a case added here.
func setKeyField(s *Spec, name string) bool {
	switch name {
	case "Workload":
		wl := *s.Workload
		wl.Name += "-other"
		s.Workload = &wl
		return true
	case "Mech":
		s.Mech = MechVWLROO
		return true
	case "Faults":
		s.Faults = sweepScenario()
		return true
	case "DRAM":
		cfg := dram.DefaultConfig()
		s.DRAM = &cfg
		return true
	}
	v := reflect.ValueOf(s).Elem().FieldByName(name)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 3)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 3)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	default:
		return false
	}
	return true
}

// TestSpecKeyCoversEveryField sets each Spec field alone and requires
// the key to change — and to differ from every other single-field
// change — unless the field is explicitly excluded or keyed only with
// its enabling field, in which case the exclusion itself is checked.
func TestSpecKeyCoversEveryField(t *testing.T) {
	base := Spec{Workload: tinyProfile()}
	seen := map[string]string{base.Key(): "(base)"}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		s := base
		if !setKeyField(&s, name) {
			t.Fatalf("Spec.%s (%s): no test value; add one to setKeyField", name, typ.Field(i).Type)
		}
		if why, ok := keyExcluded[name]; ok {
			if s.Key() != base.Key() {
				t.Errorf("Spec.%s is excluded from the key (%s) but changes it", name, why)
			}
			continue
		}
		if enable, ok := keyedWith[name]; ok {
			if s.Key() != base.Key() {
				t.Errorf("Spec.%s alone changed the key; drop it from keyedWith", name)
			}
			on := base
			enable(&on)
			s = on
			setKeyField(&s, name)
			if s.Key() == on.Key() {
				t.Errorf("Spec.%s does not change the key even with its enabling field set", name)
			}
			continue
		}
		k := s.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("Spec.%s leaves the key equal to that of %s: %s", name, prev, k)
		}
		seen[k] = name
	}
}

// goldenKeySpecs is the committed key corpus: the benchmark sweep plus
// one cell for each optional key block (faults with recovery knobs,
// metrics, DRAM override, peak power).
func goldenKeySpecs(t *testing.T) []Spec {
	specs, err := BenchSweepSpecs(150*sim.Microsecond, 25*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	base := specs[len(specs)-1]
	faulty := base
	faulty.Faults = fault.Scenario{Seed: 7, Events: []fault.Event{
		{At: fault.Duration(15 * sim.Microsecond), Kind: fault.CorruptBurst,
			Link: -1, BER: 1e-4, Duration: fault.Duration(5 * sim.Microsecond)},
		{At: fault.Duration(25 * sim.Microsecond), Kind: fault.LinkFail, Link: 3},
	}}
	faulty.RequestTimeout = 2 * sim.Microsecond
	faulty.MaxRetries = 2
	faulty.Watchdog = true
	faulty.RetrainLatency = 500 * sim.Nanosecond
	faulty.CRCRetryLimit = 4
	metered := base
	metered.MetricsInterval = 10 * sim.Microsecond
	overridden := base
	cfg := dram.DefaultConfig()
	cfg.TRCD += cfg.TRCD / 10
	overridden.DRAM = &cfg
	peak := base
	peak.PeakWatts = 16.5
	return append(specs, faulty, metered, overridden, peak)
}

// TestSpecKeyGolden proves every committed key reproduces verbatim:
// journals and stores written by earlier builds are looked up by these
// strings. The golden is never regenerated; a key change is a format
// break.
func TestSpecKeyGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, s := range goldenKeySpecs(t) {
		got.WriteString(s.Key() + "\n")
	}
	if got.String() != string(want) {
		t.Fatalf("spec keys drifted from testdata/keys.golden:\n--- want ---\n%s--- got ---\n%s", want, got.String())
	}
}
