package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"storagesim/internal/fidelity"
	"storagesim/internal/trace"
	"storagesim/internal/traffic"
)

// loadFixtureTrace ingests the pinned recorded trace the fidelity_quick
// golden audits (regenerate with:
// go run ./cmd/tracereplay -record -machine Wombat -fs vast -nodes 2
// -duration 400ms -o internal/experiments/testdata/fidelity_trace.jsonl).
func loadFixtureTrace(t *testing.T) *trace.Trace {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fidelity_trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseEvents(data, trace.JSONL, "")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Normalize(events)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFidelityRoundTrip is the pipeline auditing itself: record a synthetic
// run to trace events, serialize and re-ingest them through the JSONL
// codec, replay the trace on the same testbed, and assert the audit holds
// — every latency percentile within the documented 2% band (the sketch's
// relative-error bound is 1%, so recorded and replayed quantiles of an
// identical run can differ by at most twice that), goodput and counts
// exact.
func TestFidelityRoundTrip(t *testing.T) {
	cfg := traffic.Config{
		Spec:     SaturationTenants(),
		Duration: 300 * time.Millisecond,
		Seed:     0x5eed,
	}
	_, events, err := RecordTraffic("Wombat", VAST, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("recording produced no events")
	}
	// Serialize and re-ingest: the round trip must cross the codec, not
	// just hand the events over in memory.
	var buf strings.Builder
	if err := trace.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.ParseEvents([]byte(buf.String()), trace.JSONL, "")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Normalize(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.HasLatencies() {
		t.Fatal("recorded trace lost its latencies")
	}
	report, _, err := FidelityAudit("Wombat", VAST, 2, tr, AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		var b strings.Builder
		report.WriteText(&b)
		t.Fatalf("round-trip audit failed:\n%s", b.String())
	}
	for _, m := range report.Metrics {
		if strings.HasPrefix(m.Name, "p") && m.RelErr > 0.02 {
			t.Errorf("%s %s: relative error %.4f above the 2%% band", m.Tenant, m.Name, m.RelErr)
		}
	}
}

// goldenFidelity renders the audit report of the checked-in fixture trace:
// the replay's virtual-time results — and therefore every printed digit of
// every error band — must not move. The audit must also pass on the
// deployment the fixture was recorded on.
func goldenFidelity(t *testing.T) string {
	tr := loadFixtureTrace(t)
	report, rep, err := FidelityAudit("Wombat", VAST, 2, tr, AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration <= 0 {
		t.Fatal("replay reported no makespan")
	}
	var b strings.Builder
	if err := report.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Error("fixture audit must pass on the deployment it was recorded on")
	}
	return b.String()
}

// TestFidelityDetectsDrift: the audit is only worth its gate if it can
// fail — replaying the fixture on a different backend must land outside
// the error bands.
func TestFidelityDetectsDrift(t *testing.T) {
	tr := loadFixtureTrace(t)
	report, _, err := FidelityAudit("Wombat", NVMe, 2, tr, AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Passed() || report.Failed == 0 {
		t.Fatal("audit passed a replay on the wrong backend")
	}
}

// TestFidelityTolerances: widening the bands flips the same drifted replay
// to a pass, so tolerances are real knobs, not decoration.
func TestFidelityTolerances(t *testing.T) {
	tr := loadFixtureTrace(t)
	report, _, err := FidelityAudit("Wombat", NVMe, 2, tr, AuditOptions{
		Tolerance: fidelity.Tolerance{LatencyRel: 5, GoodputRel: 5, CountRel: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		var b strings.Builder
		report.WriteText(&b)
		t.Fatalf("500%% bands still failed:\n%s", b.String())
	}
}
