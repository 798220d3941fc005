package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func st(v, lo, hi float64) stat { return stat{Value: v, Min: lo, Max: hi, Samples: 3} }

func TestJudge(t *testing.T) {
	lower := boundDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := boundDef{Name: "sim_ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		a, b stat
		def  boundDef
		want string
	}{
		{"within bound", st(10, 9.9, 10.1), st(10.5, 10.4, 10.6), lower, verdictSame},
		{"slower beyond bound", st(10, 9.9, 10.1), st(11.5, 11.4, 11.6), lower, verdictWorse},
		{"faster beyond bound", st(10, 9.9, 10.1), st(8.5, 8.4, 8.6), lower, verdictBetter},
		{"throughput drop is worse", st(100, 99, 101), st(85, 84, 86), higher, verdictWorse},
		{"throughput rise is better", st(100, 99, 101), st(120, 119, 121), higher, verdictBetter},
		{"noisy and overlapping", st(10, 8, 12), st(11.5, 9, 13), lower, verdictUnresolved},
		{"noisy but apart", st(10, 8, 12), st(15, 14, 16), lower, verdictWorse},
		{"noisy same is unresolved", st(10, 8, 12), st(10, 9.9, 10.1), lower, verdictUnresolved},
	} {
		if got := judge(tc.a, tc.b, tc.def).Verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	bounds := []boundDef{{Name: "wall_s", Better: "lower", Bound: 0.10}}
	ok := workloadResult{Attempted: 4, Metrics: map[string]stat{"wall_s": st(10, 9.9, 10.1)}}
	slow := workloadResult{Attempted: 4, Metrics: map[string]stat{"wall_s": st(12, 11.9, 12.1)}}
	failing := workloadResult{Attempted: 4, Failed: 1, Metrics: map[string]stat{"wall_s": st(10, 9.9, 10.1)}}
	for _, tc := range []struct {
		name  string
		b     workloadResult
		fails bool
	}{
		{"identical", ok, false},
		{"worse row", slow, true},
		{"higher failed fraction", failing, true},
	} {
		rows, failed := compareSets(map[string]workloadResult{"w": ok}, map[string]workloadResult{"w": tc.b}, bounds)
		if len(rows) != 1 {
			t.Errorf("%s: %d rows, want 1", tc.name, len(rows))
		}
		if (len(failed) > 0) != tc.fails {
			t.Errorf("%s: failures %v, want failing=%v", tc.name, failed, tc.fails)
		}
	}
}

// TestRunCompare drives -compare over files, selecting sets with #k.
func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := resultsDoc{Sets: []map[string]workloadResult{
		{"w": {Attempted: 1, Metrics: map[string]stat{"wall_s": st(10, 9.9, 10.1)}}},
		{"w": {Attempted: 1, Metrics: map[string]stat{"wall_s": st(13, 12.9, 13.1)}}},
	}}
	data, _ := json.Marshal(doc)
	res := filepath.Join(dir, "res.json")
	if err := os.WriteFile(res, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := runCompare(res, res+"#0", bench, &out, &errOut); code != 0 {
		t.Errorf("set 0 against itself: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := runCompare(res+"#0", res+"#1", bench, &out, &errOut); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("set 0 against the slower set 1: exit %d\n%s", code, out.String())
	}
	if code := runCompare(res+"#2", res, bench, &out, &errOut); code != 2 {
		t.Errorf("missing set: exit %d, want 2", code)
	}
}
