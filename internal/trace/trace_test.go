package trace

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"storagesim/internal/sim"
)

func ms(x int64) sim.Time { return sim.Time(x * int64(time.Millisecond)) }

func TestRecorderSkipsEmptySpans(t *testing.T) {
	r := NewRecorder()
	for _, end := range []sim.Time{10, 5, 20} {
		r.Begin(0, Read, 10)
		r.Record(0, Read, 10, end, 100)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1", r.Len())
	}
	if a := r.Analysis(); a.TotalIO != 10 || a.Bytes != 100 || a.Ranks != 1 {
		t.Fatalf("analysis = %+v, want the one 10 ns span", a)
	}
}

func TestAnalyzeDisjoint(t *testing.T) {
	// read 0-10ms, compute 10-90ms: no overlap.
	spans := []Span{
		{Rank: 0, Kind: Read, Start: ms(0), End: ms(10), Bytes: 1000},
		{Rank: 0, Kind: Compute, Start: ms(10), End: ms(90)},
	}
	a := Analyze(spans)
	if a.TotalIO != 10*time.Millisecond || a.OverlapIO != 0 || a.NonOverlapIO != 10*time.Millisecond {
		t.Fatalf("analysis = %+v", a)
	}
	if a.ComputeTime != 80*time.Millisecond {
		t.Fatalf("compute = %v", a.ComputeTime)
	}
	if a.Bytes != 1000 {
		t.Fatalf("bytes = %d", a.Bytes)
	}
}

func TestAnalyzeFullOverlap(t *testing.T) {
	// read hidden entirely inside compute.
	spans := []Span{
		{Rank: 0, Kind: Compute, Start: ms(0), End: ms(100)},
		{Rank: 0, Kind: Read, Start: ms(20), End: ms(60), Bytes: 4096},
	}
	a := Analyze(spans)
	if a.OverlapIO != 40*time.Millisecond || a.NonOverlapIO != 0 {
		t.Fatalf("analysis = %+v", a)
	}
	if a.HiddenFraction() != 1.0 {
		t.Fatalf("hidden = %v", a.HiddenFraction())
	}
}

func TestAnalyzePartialOverlap(t *testing.T) {
	spans := []Span{
		{Rank: 0, Kind: Read, Start: ms(0), End: ms(30), Bytes: 1},
		{Rank: 0, Kind: Compute, Start: ms(20), End: ms(50)},
	}
	a := Analyze(spans)
	if a.OverlapIO != 10*time.Millisecond || a.NonOverlapIO != 20*time.Millisecond {
		t.Fatalf("analysis = %+v", a)
	}
}

func TestAnalyzeUnionsConcurrentReaders(t *testing.T) {
	// Four I/O threads reading simultaneously occupy the rank's pipeline
	// once, not four times.
	var spans []Span
	for i := 0; i < 4; i++ {
		spans = append(spans, Span{Rank: 0, Kind: Read, Start: ms(0), End: ms(10), Bytes: 100})
	}
	a := Analyze(spans)
	if a.TotalIO != 10*time.Millisecond {
		t.Fatalf("total IO = %v, want 10ms (unioned)", a.TotalIO)
	}
	if a.Bytes != 400 {
		t.Fatalf("bytes = %d, want all payload counted", a.Bytes)
	}
}

func TestAnalyzePerRankIsolation(t *testing.T) {
	// Overlap is within a rank: rank 1's compute does not hide rank 0's IO.
	spans := []Span{
		{Rank: 0, Kind: Read, Start: ms(0), End: ms(10), Bytes: 1},
		{Rank: 1, Kind: Compute, Start: ms(0), End: ms(10)},
	}
	a := Analyze(spans)
	if a.OverlapIO != 0 || a.NonOverlapIO != 10*time.Millisecond {
		t.Fatalf("analysis = %+v", a)
	}
	if a.Ranks != 2 {
		t.Fatalf("ranks = %d", a.Ranks)
	}
}

func TestThroughputs(t *testing.T) {
	spans := []Span{
		{Rank: 0, Kind: Compute, Start: ms(0), End: ms(100)},
		{Rank: 0, Kind: Read, Start: ms(50), End: ms(150), Bytes: 100e6},
	}
	a := Analyze(spans)
	// total IO 100ms, overlap 50ms, nonoverlap 50ms.
	if got := a.SysThroughput(); got != 1e9 {
		t.Fatalf("sys throughput = %v", got)
	}
	if got := a.AppThroughput(); got != 2e9 {
		t.Fatalf("app throughput = %v", got)
	}
	if a.AppThroughput() < a.SysThroughput() {
		t.Fatal("app throughput must be >= system throughput")
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Begin(0, Read, ms(1))
	r.Record(0, Read, ms(1), ms(2), 12345)
	r.Begin(1, Compute, ms(2))
	r.Record(1, Compute, ms(2), ms(5), 0)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Spans()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip lost spans: %v", back)
	}
	if back[0] != r.Spans()[0] || back[1] != r.Spans()[1] {
		t.Fatalf("round trip mismatch:\n%v\n%v", back, r.Spans())
	}
}

// Property: for any span set, NonOverlap + Overlap == Total, overlap is
// bounded by both total IO and compute, and all are non-negative.
func TestAnalysisInvariantsProperty(t *testing.T) {
	f := func(raw []struct {
		Rank  uint8
		Kind  bool
		Start uint16
		Len   uint16
	}) bool {
		var spans []Span
		for _, s := range raw {
			k := Read
			if s.Kind {
				k = Compute
			}
			spans = append(spans, Span{
				Rank:  int(s.Rank % 4),
				Kind:  k,
				Start: sim.Time(s.Start),
				End:   sim.Time(uint32(s.Start) + uint32(s.Len%1000) + 1),
				Bytes: 1,
			})
		}
		a := Analyze(spans)
		if a.TotalIO < 0 || a.OverlapIO < 0 || a.NonOverlapIO < 0 || a.ComputeTime < 0 {
			return false
		}
		if a.NonOverlapIO+a.OverlapIO != a.TotalIO {
			return false
		}
		if a.OverlapIO > a.TotalIO || a.OverlapIO > a.ComputeTime {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeUnionsOverlappingSpans: one rank's overlapping I/O spans
// occupy its pipeline once — reads [5,10) [0,3) [2,6) [20,25) are 15 ns of
// I/O, not 17.
func TestAnalyzeUnionsOverlappingSpans(t *testing.T) {
	var spans []Span
	for _, iv := range [][2]sim.Time{{5, 10}, {0, 3}, {2, 6}, {20, 25}} {
		spans = append(spans, Span{Rank: 0, Kind: Read, Start: iv[0], End: iv[1]})
	}
	if a := Analyze(spans); a.TotalIO != 15 {
		t.Fatalf("total I/O = %v, want 15ns", a.TotalIO)
	}
}

// TestAnalyzeOverlapIsIntersection: overlapping I/O is the intersection of
// the rank's I/O and compute time — reads [0,10) [20,30) against compute
// [5,25) overlap for 10 ns, and without compute for none.
func TestAnalyzeOverlapIsIntersection(t *testing.T) {
	spans := []Span{
		{Rank: 0, Kind: Read, Start: 0, End: 10},
		{Rank: 0, Kind: Write, Start: 20, End: 30},
		{Rank: 0, Kind: Compute, Start: 5, End: 25},
	}
	if a := Analyze(spans); a.OverlapIO != 10 || a.ComputeTime != 20 {
		t.Fatalf("overlap = %v, compute = %v, want 10ns and 20ns", a.OverlapIO, a.ComputeTime)
	}
	if a := Analyze(spans[:2]); a.OverlapIO != 0 || a.TotalIO != 20 {
		t.Fatalf("without compute: overlap = %v, total = %v, want 0 and 20ns", a.OverlapIO, a.TotalIO)
	}
}

// referenceAnalysis decomposes spans on small integer times the slow way:
// one nanosecond at a time, per rank, by which kinds cover it.
func referenceAnalysis(spans []Span) Analysis {
	var a Analysis
	ranks := map[int]bool{}
	var end sim.Time
	for _, s := range spans {
		if s.End > s.Start {
			ranks[s.Rank] = true
			if s.Kind != Compute {
				a.Bytes += s.Bytes
			}
		}
		if s.End > end {
			end = s.End
		}
	}
	a.Ranks = len(ranks)
	for rank := range ranks {
		for t := sim.Time(0); t < end; t++ {
			var io, compute bool
			for _, s := range spans {
				if s.Rank == rank && s.Start <= t && t < s.End {
					if s.Kind == Compute {
						compute = true
					} else {
						io = true
					}
				}
			}
			if io {
				a.TotalIO++
			}
			if compute {
				a.ComputeTime++
			}
			if io && compute {
				a.OverlapIO++
			}
		}
	}
	a.NonOverlapIO = a.TotalIO - a.OverlapIO
	return a
}

// TestOnlineMatchesAnalyze records randomized overlapping spans — with
// zero-length spans and spans that touch end to start — through Begin and
// Record in time order, the way a simulation does, with boundaries at one
// instant in random order. The online decomposition must equal Analyze
// over the logged spans and the nanosecond-by-nanosecond reference,
// exactly.
func TestOnlineMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		var spans []Span
		for i, n := 0, 1+rng.Intn(24); i < n; i++ {
			start := sim.Time(rng.Intn(40))
			length := sim.Time(rng.Intn(12))
			if rng.Intn(4) == 0 {
				length = 0
			}
			if i > 0 && rng.Intn(4) == 0 { // touch the previous span's end
				start = spans[i-1].End
			}
			spans = append(spans, Span{
				Rank: rng.Intn(3), Kind: Kind(rng.Intn(3)),
				Start: start, End: start + length, Bytes: int64(1 + rng.Intn(100)),
			})
		}
		type boundary struct {
			at, tie sim.Time
			span    int
			open    bool
		}
		var bs []boundary
		for i, s := range spans {
			tie := sim.Time(2 * rng.Intn(1000))
			closeTie := tie + 1 // an empty span still closes after it opens
			if s.End > s.Start {
				closeTie = sim.Time(2 * rng.Intn(1000))
			}
			bs = append(bs, boundary{s.Start, tie, i, true}, boundary{s.End, closeTie, i, false})
		}
		sort.Slice(bs, func(a, b int) bool {
			if bs[a].at != bs[b].at {
				return bs[a].at < bs[b].at
			}
			return bs[a].tie < bs[b].tie
		})
		rec := NewRecorder()
		for _, b := range bs {
			s := spans[b.span]
			if b.open {
				rec.Begin(s.Rank, s.Kind, s.Start)
			} else {
				rec.Record(s.Rank, s.Kind, s.Start, s.End, s.Bytes)
			}
		}
		online, replayed, want := rec.Analysis(), Analyze(rec.Spans()), referenceAnalysis(spans)
		if online != want || replayed != want || Analyze(spans) != want {
			t.Fatalf("trial %d: online %+v, Analyze %+v, reference %+v\nspans %v", trial, online, replayed, want, spans)
		}
	}
}
