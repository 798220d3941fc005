package experiments

import (
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"storagesim/internal/configsearch"
	"storagesim/internal/surrogate"
	"storagesim/internal/vast"
)

// loadWhatIfSpace reads the pinned differential fixture.
func loadWhatIfSpace(t *testing.T) configsearch.Space {
	t.Helper()
	buf, err := os.ReadFile("testdata/whatif_space.json")
	if err != nil {
		t.Fatal(err)
	}
	space, err := configsearch.ParseSpace(buf)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// The fixture must stay big enough that surrogate pruning is the point:
// a space small enough to DES exhaustively would not exercise the
// explorer's reason to exist. The JSON fixture and the in-code
// WhatIfFixtureSpace must enumerate identically, so the differential
// tests and the figure explore the same space.
func TestWhatIfFixtureSpace(t *testing.T) {
	space := loadWhatIfSpace(t)
	cands, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 500 {
		t.Fatalf("fixture space enumerates %d candidates, want >= 500", len(cands))
	}
	inCode := WhatIfFixtureSpace()
	codeCands, err := inCode.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(codeCands) != len(cands) {
		t.Fatalf("WhatIfFixtureSpace enumerates %d candidates, JSON fixture %d", len(codeCands), len(cands))
	}
	for i := range cands {
		if cands[i] != codeCands[i] {
			t.Fatalf("candidate %d differs: fixture %s, WhatIfFixtureSpace %s", i, cands[i], codeCands[i])
		}
	}
}

// goldenWhatIf renders the explorer's frontier table on the fixture
// space: calibrated surrogate, margin-band pruning, DES verification of
// the survivors. The run is asserted deterministic by rendering twice, and
// the surrogate must prune at least nine tenths of the space.
func goldenWhatIf(t *testing.T) string {
	space := loadWhatIfSpace(t)
	run := func() (*WhatIfResult, string) {
		res, err := ConfigSearch(WhatIfConfig{Space: space, Calibrate: true, Budget: 60})
		if err != nil {
			t.Fatal(err)
		}
		return res, res.FrontierTable().Render()
	}
	res, got := run()
	if _, got2 := run(); got != got2 {
		t.Fatalf("what-if explorer is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", got, got2)
	}

	total := len(res.Search.Candidates)
	verified := len(res.Search.Survivors)
	if verified*10 > total {
		t.Errorf("DES-verified %d of %d candidates (> 10%%): the surrogate prunes too little", verified, total)
	}
	if len(res.Search.Frontier) == 0 {
		t.Fatal("empty measured frontier")
	}
	if res.Probes == 0 {
		t.Error("calibration ran no probes")
	}
	return got
}

// goldenWhatIfFigure renders the two-panel predicted-vs-measured frontier
// figure (cmd/paperfigs -fig whatif).
func goldenWhatIfFigure(t *testing.T) string {
	panels, err := FigWhatIf(Options{Seed: 0x5eed})
	got := renderPanels(t, err, panels...)
	if len(panels) != 2 {
		t.Errorf("FigWhatIf returned %d panels, want 2", len(panels))
	}
	return got
}

// TestWhatIfDifferential is the fidelity audit for the surrogate: every
// candidate in the fixture space is DES-measured exhaustively, and the
// surrogate's predictions must (a) rank the space consistently, (b) stay
// within bounded relative error, and (c) never have pruned a candidate
// that belongs on the true DES frontier.
func TestWhatIfDifferential(t *testing.T) {
	space := loadWhatIfSpace(t)
	res, err := ConfigSearch(WhatIfConfig{Space: space, Calibrate: true, Budget: 60})
	if err != nil {
		t.Fatal(err)
	}

	// Exhaustive DES over the whole space with the same explorer
	// parameters the search used.
	wc := WhatIfConfig{Space: space}.withDefaults()
	e, err := newWhatIfExplorer(wc)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	measured, err := e.measureBatch(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range measured {
		measured[i].CostHr = space.Cost(cands[i])
	}

	// (a) Rank fidelity: the search ordered the space by these predictions.
	predG := make([]float64, len(cands))
	predP := make([]float64, len(cands))
	measG := make([]float64, len(cands))
	measP := make([]float64, len(cands))
	for i := range cands {
		predG[i] = res.Search.Candidates[i].Predicted.GoodputBps
		predP[i] = res.Search.Candidates[i].Predicted.P99Sec
		measG[i] = measured[i].GoodputBps
		measP[i] = measured[i].P99Sec
	}
	if rc := surrogate.RankCorrelation(predG, measG); rc < 0.95 {
		t.Errorf("goodput rank correlation %.3f < 0.95", rc)
	}
	if rc := surrogate.RankCorrelation(predP, measP); rc < 0.80 {
		t.Errorf("p99 rank correlation %.3f < 0.80", rc)
	}

	// (b) Bounded relative error. Goodput is the surrogate's strong suit;
	// the p99 bound is looser because tail constants are first-order.
	gErr := relErrors(predG, measG)
	pErr := relErrors(predP, measP)
	if m := quantileOf(gErr, 0.50); m > 0.05 {
		t.Errorf("median goodput relative error %.3f > 0.05", m)
	}
	if m := quantileOf(gErr, 0.90); m > 0.15 {
		t.Errorf("p90 goodput relative error %.3f > 0.15", m)
	}
	if m := quantileOf(pErr, 0.50); m > 0.35 {
		t.Errorf("median p99 relative error %.3f > 0.35", m)
	}

	// (c) Soundness: the true DES frontier must be a subset of the
	// reported frontier — surrogate pruning may cost extra verification,
	// never a frontier point.
	reported := map[string]bool{}
	for _, i := range res.Search.Frontier {
		reported[res.Search.Candidates[i].Candidate.String()] = true
	}
	trueFrontier := configsearch.ParetoIndices(measured, res.Search.Objectives)
	for _, i := range trueFrontier {
		if !reported[cands[i].String()] {
			t.Errorf("true-frontier candidate %s (meas %.2f GB/s, p99 %.2f ms, $%.2f/hr) was pruned by the surrogate",
				cands[i], measured[i].GoodputBps/1e9, measured[i].P99Sec*1e3, measured[i].CostHr)
		}
	}
	if len(res.Search.Survivors)*10 > len(cands) {
		t.Errorf("verified %d of %d candidates (> 10%%)", len(res.Search.Survivors), len(cands))
	}
	t.Logf("%d candidates, %d verified, %d reported frontier, %d true frontier",
		len(cands), len(res.Search.Survivors), len(res.Search.Frontier), len(trueFrontier))
}

// relErrors returns |pred-meas|/meas for every pair with meas > 0.
func relErrors(pred, meas []float64) []float64 {
	out := make([]float64, 0, len(pred))
	for i := range pred {
		if meas[i] > 0 {
			out = append(out, math.Abs(pred[i]-meas[i])/meas[i])
		}
	}
	return out
}

// quantileOf returns the q-quantile of vs by sorting a copy.
func quantileOf(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

// TestWhatIfCalibration is the self-check for the probe fit: coefficients
// fitted to a handful of DES probes must rank a held-out candidate spread
// at least as well as the stock coefficients, and the fit itself must be
// deterministic.
func TestWhatIfCalibration(t *testing.T) {
	space := loadWhatIfSpace(t)
	wc := WhatIfConfig{Space: space}.withDefaults()
	e, err := newWhatIfExplorer(wc)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}

	// Fit on 8 evenly spread probes.
	probeIdx := probeIndices(len(cands), 8)
	probes := make([]surrogate.Probe, len(probeIdx))
	for k, i := range probeIdx {
		dep, streams, err := e.analytical(cands[i])
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.measure(cands[i])
		if err != nil {
			t.Fatal(err)
		}
		probes[k] = surrogate.Probe{Dep: dep, Streams: streams, GoodputBps: m.GoodputBps, P99Sec: m.P99Sec}
	}
	base := surrogate.NewModel().Coeffs
	fitted := surrogate.Fit(base, probes)
	if again := surrogate.Fit(base, probes); again != fitted {
		t.Fatalf("Fit is not deterministic: %+v vs %+v", fitted, again)
	}

	// Evaluate both coefficient sets on a held-out spread (disjoint from
	// the probes by construction: twice as many points, odd positions).
	evalIdx := probeIndices(len(cands), 16)
	var heldOut []int
	inProbes := map[int]bool{}
	for _, i := range probeIdx {
		inProbes[i] = true
	}
	for _, i := range evalIdx {
		if !inProbes[i] {
			heldOut = append(heldOut, i)
		}
	}
	if len(heldOut) < 5 {
		t.Fatalf("held-out spread too small: %d", len(heldOut))
	}
	rank := func(coeffs surrogate.Coeffs) float64 {
		model := surrogate.Model{Coeffs: coeffs}
		pred := make([]float64, len(heldOut))
		meas := make([]float64, len(heldOut))
		for k, i := range heldOut {
			dep, streams, err := e.analytical(cands[i])
			if err != nil {
				t.Fatal(err)
			}
			m, err := e.measure(cands[i])
			if err != nil {
				t.Fatal(err)
			}
			pred[k] = model.Score(dep, streams).GoodputBps
			meas[k] = m.GoodputBps
		}
		return surrogate.RankCorrelation(pred, meas)
	}
	rBase, rFit := rank(base), rank(fitted)
	if rFit < rBase-1e-9 {
		t.Errorf("calibration worsened goodput rank correlation: base %.3f, fitted %.3f", rBase, rFit)
	}
	t.Logf("rank correlation base %.3f fitted %.3f (coeffs %+v)", rBase, rFit, fitted)
}

// TestWhatIfFaultSearch arms the degraded-window scenario: under a
// unit-fail fault the repair-QoS knob must be performance-live in the DES
// (throttled vs aggressive rebuilds measurably differ) and the search
// must carry both through to a measured frontier.
func TestWhatIfFaultSearch(t *testing.T) {
	space := configsearch.Space{
		Machine:     "Wombat",
		Backends:    []string{"vast"},
		Nodes:       []int{1},
		CNodes:      []int{4},
		Nconnect:    []int{8},
		DBoxes:      []int{4},
		StripeWidth: []int{2},
		ECParity:    []int{1},
		RepairQoS:   []string{configsearch.QoSThrottled, configsearch.QoSAggressive},
		MaxInflight: []int{32},
		Fault:       &configsearch.Fault{Kind: "unit-fail", At: 50 * time.Millisecond, Index: 0},
	}
	cands, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("fault space enumerates %d candidates, want 2", len(cands))
	}

	wc := WhatIfConfig{Space: space}.withDefaults()
	e, err := newWhatIfExplorer(wc)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := e.measureBatch(cands)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].GoodputBps == ms[1].GoodputBps && ms[0].P99Sec == ms[1].P99Sec {
		t.Errorf("throttled and aggressive rebuilds are indistinguishable in the DES: %+v", ms[0])
	}

	res, err := ConfigSearch(WhatIfConfig{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Search.Frontier) == 0 {
		t.Fatal("empty frontier under fault")
	}
	for _, i := range res.Search.Frontier {
		if res.Search.Candidates[i].Measured == nil {
			t.Fatalf("frontier candidate %s has no DES measurement", res.Search.Candidates[i].Candidate)
		}
	}
}

// TestWhatIfCandidateMutatesVASTOffWombat: the knobs Space.Validate admits
// off Wombat (client_cache_mib) must reach the simulated deployment. A
// Ruby candidate with a 4 GiB client cache once ran on the stock 8 GiB
// cache, because only Wombat testbeds applied the candidate's mutation.
func TestWhatIfCandidateMutatesVASTOffWombat(t *testing.T) {
	space := configsearch.Space{
		Machine:        "Ruby",
		Backends:       []string{"vast"},
		Nodes:          []int{1},
		ClientCacheMiB: []int{4096},
	}
	wc := WhatIfConfig{Space: space}.withDefaults()
	e, err := newWhatIfExplorer(wc)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].ClientCacheMiB != 4096 {
		t.Fatalf("space enumerates %v, want one cc4096 candidate", cands)
	}
	tb, err := e.buildCandidate(cands[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tb.sys.(*vast.System).Config().ClientCacheBytes, int64(4096)<<20; got != want {
		t.Fatalf("Ruby candidate %s runs with ClientCacheBytes %d, want %d", cands[0], got, want)
	}
}
