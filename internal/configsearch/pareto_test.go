package configsearch

import (
	"reflect"
	"testing"
)

func m(goodput, p99, cost float64) Metrics {
	return Metrics{GoodputBps: goodput, P99Sec: p99, CostHr: cost}
}

func TestParetoIndices(t *testing.T) {
	ms := []Metrics{
		m(10, 1, 5),  // 0: frontier (best goodput)
		m(8, 0.5, 5), // 1: frontier (best p99)
		m(8, 1, 6),   // 2: dominated by 0 (less goodput, same p99, more cost)
		m(5, 2, 1),   // 3: frontier (cheapest)
		m(5, 2, 2),   // 4: dominated by 3
	}
	got := ParetoIndices(ms, DefaultObjectives())
	if want := []int{0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("frontier %v, want %v", got, want)
	}
}

func TestParetoSubsetPreservation(t *testing.T) {
	// The pruning-correctness argument: a point non-dominated in the
	// full set stays non-dominated in any subset containing it.
	ms := []Metrics{m(10, 1, 5), m(8, 0.5, 5), m(8, 1, 6), m(5, 2, 1)}
	full := ParetoIndices(ms, DefaultObjectives())
	sub := []Metrics{ms[0], ms[2], ms[3]} // drop point 1
	subFront := ParetoIndices(sub, DefaultObjectives())
	subSet := map[int]bool{}
	for _, i := range subFront {
		subSet[i] = true
	}
	for _, i := range full {
		if i == 1 {
			continue // not in the subset
		}
		j := map[int]int{0: 0, 2: 1, 3: 2}[i]
		if !subSet[j] {
			t.Fatalf("full-set frontier point %d lost its frontier status in the subset", i)
		}
	}
}

func TestMarginSurvivors(t *testing.T) {
	ms := []Metrics{
		m(10, 1, 5),     // 0: frontier
		m(9.5, 1.05, 5), // 1: within 10% of 0 on every axis — survives
		m(5, 2, 5),      // 2: beaten by 0 by far more than the margin
		m(5, 2, 1),      // 3: cheapest, survives on the cost axis
	}
	got := MarginSurvivors(ms, DefaultObjectives(), 0.10)
	if want := []int{0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("survivors %v, want %v", got, want)
	}
	// Frontier members always survive: the band contains the frontier.
	front := ParetoIndices(ms, DefaultObjectives())
	surv := map[int]bool{}
	for _, i := range got {
		surv[i] = true
	}
	for _, i := range front {
		if !surv[i] {
			t.Fatalf("frontier point %d pruned by its own margin band", i)
		}
	}
}

func TestMarginSurvivorsKeepsDuplicates(t *testing.T) {
	ms := []Metrics{m(10, 1, 5), m(10, 1, 5)}
	if got := MarginSurvivors(ms, DefaultObjectives(), 0.05); len(got) != 2 {
		t.Fatalf("identical points pruned each other: %v", got)
	}
}

func TestObjectiveSubset(t *testing.T) {
	ms := []Metrics{
		m(10, 5, 9), // best goodput, terrible p99
		m(9, 1, 9),  // dominated on (goodput, cost) alone
	}
	two := ParetoIndices(ms, []Objective{Goodput, Cost})
	if !reflect.DeepEqual(two, []int{0}) {
		t.Fatalf("two-axis frontier %v, want [0]", two)
	}
	three := ParetoIndices(ms, DefaultObjectives())
	if !reflect.DeepEqual(three, []int{0, 1}) {
		t.Fatalf("three-axis frontier %v, want [0 1]", three)
	}
}

func TestParseObjectives(t *testing.T) {
	got, err := ParseObjectives("goodput,cost")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []Objective{Goodput, Cost}) {
		t.Fatalf("parsed %v", got)
	}
	if _, err := ParseObjectives("goodput,latency"); err == nil {
		t.Fatal("unknown objective accepted")
	}
	if _, err := ParseObjectives("cost,cost"); err == nil {
		t.Fatal("duplicate objective accepted")
	}
	def, err := ParseObjectives("")
	if err != nil || len(def) != 3 {
		t.Fatalf("empty list: %v %v", def, err)
	}
}
