package experiments

import (
	"fmt"

	"storagesim/internal/ior"
	"storagesim/internal/vast"
)

// The ablations test the design hypotheses the paper states but cannot
// verify on production hardware — its declared future work ("we plan on
// deploying a custom VAST configuration on cloud-like resources ... to test
// this"). The simulator can simply rebuild VAST with different knobs.

// AblationFabric sweeps the CBox↔DBox fabric bandwidth of the Wombat VAST
// instance and measures aggregate random-read bandwidth at full machine
// scale — testing the paper's hypothesis that the 2×50 Gb Ethernet
// enclosure links cap VAST's scalability (Section V-A).
func AblationFabric(opts Options) (Panel, error) { return vastAblations[0].run(opts) }

// AblationNconnect sweeps the NFS nconnect count of the RDMA deployment
// and measures per-node sequential-read bandwidth at one node.
func AblationNconnect(opts Options) (Panel, error) { return vastAblations[1].run(opts) }

// AblationCNodes sweeps the CNode count of the RDMA deployment and
// measures aggregate sequential-read bandwidth at 8 nodes — the paper
// attributes the 8-node saturation of Figure 2b to the 8 CNodes.
func AblationCNodes(opts Options) (Panel, error) { return vastAblations[2].run(opts) }

// AblationTCPGateway sweeps the Lassen gateway link bandwidth under the
// TCP deployment — the knob the LC administrators would upgrade (the
// paper's "help Livermore Computing administrators improve the
// interconnection used with VAST").
func AblationTCPGateway(opts Options) (Panel, error) { return vastAblations[3].run(opts) }

// vastAblation is one VAST knob sweep: its panel, its series, the IOR
// point it measures (3000 one-MiB segments per rank), its x values (full
// and quick) and the setter that applies x to the deployment. Without a
// setter, x is the fraction of the server-side capacity left (derate).
type vastAblation struct {
	panel       Panel
	series      string
	machine     string
	nodes, ppn  int
	wl          ior.Workload
	xs, quickXs []float64 // quickXs nil: the quick sweep is xs
	set         func(c *vast.Config, x float64)
}

// vastAblations holds the fabric, nconnect, CNode and TCP-gateway sweeps.
var vastAblations = [...]vastAblation{
	{
		panel: Panel{
			ID:     "ablation-fabric",
			Title:  "Wombat VAST: ML aggregate bandwidth vs per-DBox fabric bandwidth (8 nodes)",
			XLabel: "fabric GB/s per DBox",
			YLabel: "aggregate GB/s",
			Notes:  []string{"hypothesis confirmed when aggregate bandwidth tracks the fabric sweep until another resource binds"},
		},
		series: "vast ml read", machine: "Wombat", nodes: 8, ppn: 48, wl: ior.ML,
		xs:      []float64{1.5625, 3.125, 6.25, 12.5, 25},
		quickXs: []float64{3.125, 6.25, 12.5},
		set:     func(c *vast.Config, x float64) { c.FabricBWPerDBox = x * 1e9 },
	},
	{
		panel: Panel{
			ID:     "ablation-nconnect",
			Title:  "Wombat VAST: single-node read bandwidth vs nconnect",
			XLabel: "nconnect",
			YLabel: "GB/s per node",
			Notes:  []string{"diminishing returns once the connection pool exceeds the node's link share"},
		},
		series: "vast seq read", machine: "Wombat", nodes: 1, ppn: 48, wl: ior.Analytics,
		xs:      []float64{1, 2, 4, 8, 16, 32},
		quickXs: []float64{1, 4, 16},
		set:     func(c *vast.Config, x float64) { setNconnect(c, int(x)) },
	},
	{
		panel: Panel{
			ID:     "ablation-cnodes",
			Title:  "Wombat VAST: aggregate read bandwidth vs CNode count (8 nodes)",
			XLabel: "CNodes",
			YLabel: "aggregate GB/s",
			Notes:  []string{"below 2 CNodes the protocol-server NICs bind; beyond that the enclosure fabric does — together they explain the Figure 2b saturation"},
		},
		series: "vast seq read", machine: "Wombat", nodes: 8, ppn: 48, wl: ior.Analytics,
		xs:      []float64{1, 2, 4, 8, 16},
		quickXs: []float64{1, 8},
		set:     func(c *vast.Config, x float64) { c.CNodes = int(x) },
	},
	{
		// Sweeping the gateway means rebuilding the transport; express it
		// as a fraction of the stock 25 GB/s gateway via Derate.
		panel: Panel{
			ID:     "ablation-tcp-gateway",
			Title:  "Lassen VAST: 64-node aggregate write bandwidth vs gateway capacity",
			XLabel: "gateway fraction of 2x100GbE",
			YLabel: "aggregate GB/s",
		},
		series: "vast seq write", machine: "Lassen", nodes: 64, ppn: 44, wl: ior.Scientific,
		xs: []float64{0.25, 0.5, 1.0},
	},
}

// run measures the ablation once per x, uncontended, whatever opts.Reps
// is.
func (a vastAblation) run(opts Options) (Panel, error) {
	xs := a.xs
	if opts.Quick && a.quickXs != nil {
		xs = a.quickXs
	}
	opts.Reps = 1
	panels, err := sweep([]Panel{a.panel}, []sweepSeries{{name: a.series, fs: VAST, xs: xs,
		point: func(x, derate float64, seed uint64) (float64, error) {
			mutate := func(c *vast.Config) { a.set(c, x) }
			if a.set == nil {
				derate, mutate = x, nil
			}
			return iorPoint(a.machine, VAST, a.nodes, a.ppn, a.wl, 3000, false, derate, seed, mutate)
		}}}, opts)
	if err != nil {
		return Panel{}, err
	}
	return panels[0], nil
}

// setNconnect adjusts the RDMA transport's connection count in a Wombat
// VAST config.
func setNconnect(c *vast.Config, n int) {
	type nconnSetter interface{ SetConnections(int) }
	if t, ok := c.Transport.(nconnSetter); ok {
		t.SetConnections(n)
		return
	}
	panic(fmt.Sprintf("experiments: transport %T does not support nconnect", c.Transport))
}
