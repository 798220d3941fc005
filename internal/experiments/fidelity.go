package experiments

import (
	"storagesim/internal/faults"
	"storagesim/internal/fidelity"
	"storagesim/internal/trace"
	"storagesim/internal/traffic"
)

// Trace replay and fidelity audits: the entry points behind cmd/tracereplay.
// RecordTraffic turns a synthetic run into a recorded trace (the simulator
// acting as its own production system); ReplayTraceOn replays any recorded
// trace — ingested or synthetic — against a deployment; FidelityAudit does
// the replay and then holds the model to the trace's recorded metrics with
// per-metric error bands. The round-trip fidelity test chains all three:
// record, re-ingest, replay on the same testbed, audit — the audit harness
// auditing itself.

// RecordTraffic runs the traffic spec on a machine+fs testbed and records
// the completed request stream as trace events (issue time, tenant, op,
// bytes, op size, measured latency, node, path). The run always drains:
// an undrained recording omits the in-flight tail whose contention shaped
// the recorded latencies, so replaying it would measure a lighter load
// than the one recorded. The returned events are in completion order;
// trace.Normalize sorts and rebases them.
func RecordTraffic(machine string, fs FS, nodes int, cfg traffic.Config) (traffic.Report, []trace.Event, error) {
	var events []trace.Event
	cfg.Observer = func(ev trace.Event) { events = append(events, ev) }
	cfg.Drain = true
	rep, _, err := RunTrafficWithFaults(machine, fs, nodes, cfg, faults.Schedule{})
	return rep, events, err
}

// ReplayTraceOn replays a normalized trace open-loop against a machine+fs
// testbed: recorded timestamps drive the arrivals, the target deployment
// decides the latencies. Tenant mounts are minted per tenant×node exactly
// as in RunTrafficWithFaults.
func ReplayTraceOn(machine string, fs FS, nodes int, tr *trace.Trace, cfg traffic.TraceConfig) (traffic.Report, error) {
	tb, err := buildTestbed(machine, fs, nodes, nil)
	if err != nil {
		return traffic.Report{}, err
	}
	cfg.Trace = tr
	return traffic.ReplayTrace(tb.env, tb.fab, nodes, tb.tenantMount, cfg), nil
}

// AuditOptions parameterizes a fidelity audit.
type AuditOptions struct {
	// IOBytes is the replay's per-op transfer size (0 = 1 MiB).
	IOBytes int64
	// Tolerance bounds the acceptable per-metric error (zero fields take
	// the documented defaults: 2% on percentiles, 5% on goodput, exact
	// completion counts).
	Tolerance fidelity.Tolerance
}

// FidelityAudit replays tr against the deployment and compares simulated
// per-tenant goodput, completion counts and p50/p95/p99 latency against
// the metrics recorded in the trace, reporting per-metric error bands. The
// replay report is returned alongside so callers can render both views.
func FidelityAudit(machine string, fs FS, nodes int, tr *trace.Trace, opts AuditOptions) (*fidelity.Report, traffic.Report, error) {
	rep, err := ReplayTraceOn(machine, fs, nodes, tr, traffic.TraceConfig{IOBytes: opts.IOBytes})
	if err != nil {
		return nil, traffic.Report{}, err
	}
	audit, err := fidelity.Audit(tr, rep, opts.Tolerance, 0)
	if err != nil {
		return nil, traffic.Report{}, err
	}
	return audit, rep, nil
}
