package grefar_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"grefar"
)

// TestOptionsMatchLegacyConfig proves the functional-options constructor and
// the deprecated Config path build identical schedulers.
func TestOptionsMatchLegacyConfig(t *testing.T) {
	c := grefar.ReferenceCluster()
	legacy, err := grefar.New(c, grefar.Config{V: 7.5, Beta: 100})
	if err != nil {
		t.Fatal(err)
	}
	optioned, err := grefar.New(c, grefar.WithV(7.5), grefar.WithBeta(100))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, optioned) {
		t.Errorf("schedulers differ:\nlegacy   %+v\noptioned %+v", legacy, optioned)
	}
	if legacy.Name() != optioned.Name() {
		t.Errorf("names differ: %q vs %q", legacy.Name(), optioned.Name())
	}
}

// TestOptionOrdering proves later options win, including over a Config
// literal used as the compat option.
func TestOptionOrdering(t *testing.T) {
	c := grefar.ReferenceCluster()
	s, err := grefar.New(c, grefar.Config{V: 1, Beta: 2}, grefar.WithV(7.5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := grefar.New(c, grefar.WithV(7.5), grefar.WithBeta(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != want.Name() {
		t.Errorf("ordering broken: got %q, want %q", s.Name(), want.Name())
	}
}

// TestSimulateOptionsByteIdentical proves the options path and the legacy
// SimOptions path produce byte-identical results on the reference seed.
func TestSimulateOptionsByteIdentical(t *testing.T) {
	const seed, slots = 2012, 60
	run := func(opts ...grefar.SimOption) *grefar.SimResult {
		t.Helper()
		in, err := grefar.ReferenceInputs(seed, slots)
		if err != nil {
			t.Fatal(err)
		}
		s, err := grefar.New(in.Cluster, grefar.WithV(7.5), grefar.WithBeta(100))
		if err != nil {
			t.Fatal(err)
		}
		res, err := grefar.Simulate(in, s, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	legacy := run(grefar.SimOptions{Slots: slots, RecordSeries: true, ValidateActions: true})
	optioned := run(grefar.WithSlots(slots), grefar.WithRecordedSeries(true), grefar.WithActionValidation(true))
	if !reflect.DeepEqual(legacy, optioned) {
		t.Errorf("results differ:\nlegacy   %+v\noptioned %+v", legacy, optioned)
	}
}

// TestObserversDoNotChangeResults proves attaching telemetry leaves the
// simulation outcome byte-identical.
func TestObserversDoNotChangeResults(t *testing.T) {
	const seed, slots = 7, 40
	run := func(extra ...grefar.SimOption) *grefar.SimResult {
		t.Helper()
		in, err := grefar.ReferenceInputs(seed, slots)
		if err != nil {
			t.Fatal(err)
		}
		s, err := grefar.New(in.Cluster, grefar.WithV(7.5), grefar.WithBeta(100))
		if err != nil {
			t.Fatal(err)
		}
		opts := append([]grefar.SimOption{grefar.WithSlots(slots)}, extra...)
		res, err := grefar.Simulate(in, s, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run()
	reg := grefar.NewRegistry()
	var jsonl strings.Builder
	observed := run(grefar.WithTelemetry(reg), grefar.WithObserver(grefar.NewJSONLObserver(&jsonl)))
	if !reflect.DeepEqual(plain, observed) {
		t.Error("telemetry changed the simulation result")
	}
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), `grefar_slots_total{origin="sim"} 40`) {
		t.Errorf("registry missed slots:\n%s", expo.String())
	}
	// Per-site series carry the cluster's data-center names.
	if !strings.Contains(expo.String(), `grefar_dc_energy_cost_total{dc="dc1"}`) {
		t.Errorf("per-site series not labeled with DC names:\n%s", expo.String())
	}
	if jsonl.Len() == 0 || strings.Count(jsonl.String(), "\n") != 40 {
		t.Errorf("JSONL observer wrote %d lines, want 40", strings.Count(jsonl.String(), "\n"))
	}
}

// TestWithContextCancelsRun proves a run handed a canceled context stops
// between slots and says so.
func TestWithContextCancelsRun(t *testing.T) {
	in, err := grefar.ReferenceInputs(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	s, err := grefar.New(in.Cluster, grefar.WithV(7.5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = grefar.SimulateContext(ctx, in, s, grefar.WithSlots(50))
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Errorf("error %q does not mention cancellation", err)
	}
}
