package controller

import (
	"os"
	"strings"
	"testing"
	"time"

	"grefar/internal/model"
	"grefar/internal/telemetry"
)

// driveHealthMetrics puts a three-agent tracker through every path that
// touches a per-agent series: round trips for all, a failure streak that
// walks agent 1 through Suspect to Dead and back, a divergence on agent 2.
func driveHealthMetrics(tk *Tracker) {
	for slot := 0; slot < 3; slot++ {
		for i := 0; i < 3; i++ {
			tk.ObserveRTT(i, time.Duration(i+1)*300*time.Microsecond)
		}
	}
	for k := 0; k < 3; k++ {
		tk.RecordFailure(1)
	}
	tk.setState(1, Rejoining)
	tk.RecordSuccess(1)
	tk.RecordFailure(0)
	tk.NoteDivergence(2)
	tk.NoteDegraded()
}

// TestHealthMetricsOutputUnchanged holds /metrics to the bytes the tracker
// published when it looked every series up by label on every observation
// (testdata/health_metrics.prom was written by that build; -update rewrites
// it). Series are still created by their first sample, not up front: an agent
// that never failed has no failures line.
func TestHealthMetricsOutputUnchanged(t *testing.T) {
	reg := telemetry.NewRegistry()
	tk := NewTracker(model.NewReferenceCluster(), nil, HealthConfig{Policy: Degrade}, reg)
	driveHealthMetrics(tk)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/health_metrics.prom"
	if *updateChaosGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("/metrics changed:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestHealthMetricsAllocateNothing: with a registry attached, the per-agent
// observations a slot makes 2N of must not build a label string or probe the
// family's series map each time. The agent index is past strconv's table of
// preformatted small integers, where looking the series up by label did
// allocate. (None of these touches a shadow, so the tracker needs no queue
// set, and the reference cluster's sites, repeated, make a 200-agent one.)
func TestHealthMetricsAllocateNothing(t *testing.T) {
	c := model.NewReferenceCluster()
	for len(c.DataCenters) < 200 {
		c.DataCenters = append(c.DataCenters, c.DataCenters[0])
	}
	tk := NewTracker(c, nil, HealthConfig{Policy: Degrade}, telemetry.NewRegistry())
	const agent = 150
	tk.ObserveRTT(agent, time.Millisecond) // first samples create the series
	tk.RecordFailure(agent)
	for name, op := range map[string]func(){
		"ObserveRTT":    func() { tk.ObserveRTT(agent, time.Millisecond) },
		"RecordFailure": func() { tk.RecordFailure(agent) },
		"setState":      func() { tk.setState(agent, Suspect) },
	} {
		if got := testing.AllocsPerRun(100, op); got != 0 {
			t.Errorf("%s allocates %.0f per call with a registry attached, want 0", name, got)
		}
	}
}
