package experiments

import (
	"sync"
	"testing"
)

// The quick retry-storm study takes a few seconds; its golden and
// TestRetryStormMetastability share one run.
var (
	stormOnce sync.Once
	stormRes  RetryStormResult
	stormErr  error
)

func quickStorm(t *testing.T) RetryStormResult {
	t.Helper()
	stormOnce.Do(func() {
		stormRes, stormErr = RetryStormStudy(Options{Quick: true})
	})
	if stormErr != nil {
		t.Fatal(stormErr)
	}
	return stormRes
}

// TestRetryStormMetastability asserts the study's headline properties
// rather than its bytes, so a deliberate golden regeneration cannot
// silently invert the result:
//
//   - unbounded retries convert the transient brownout into a permanent
//     collapse — post-recovery goodput stays at least 30% below nominal
//     and the inflight window remains pinned at its cap;
//   - the budgeted stack recovers to within 5% of nominal, with the
//     breaker having tripped (shedding load cheaply) and re-closed.
func TestRetryStormMetastability(t *testing.T) {
	res := quickStorm(t)
	if res.NaiveNominal <= 0 || res.BudgetedNominal <= 0 {
		t.Fatalf("no nominal goodput: naive %v budgeted %v", res.NaiveNominal, res.BudgetedNominal)
	}
	if res.NaivePost > 0.7*res.NaiveNominal {
		t.Fatalf("naive variant recovered: post %v vs nominal %v (want ≥30%% below)",
			res.NaivePost, res.NaiveNominal)
	}
	if res.BudgetedPost < 0.95*res.BudgetedNominal {
		t.Fatalf("budgeted variant did not recover: post %v vs nominal %v (want within 5%%)",
			res.BudgetedPost, res.BudgetedNominal)
	}
	// The naive collapse must be self-sustaining, not a draining backlog:
	// the inflight window is still pinned at its cap when the run ends,
	// 3.5 s after full capacity returned.
	if got, cap := res.NaiveReport.InFlightEnd, 1024; got != cap {
		t.Fatalf("naive inflight %d at end, want pinned at cap %d", got, cap)
	}
	if res.NaiveReport.Breaker.Opens != 0 {
		t.Fatalf("naive variant has no breaker but opened %d times", res.NaiveReport.Breaker.Opens)
	}
	br := res.BudgetedReport
	if br.Breaker.Opens == 0 || br.ShedBreaker == 0 {
		t.Fatalf("budgeted breaker never engaged: %+v", br)
	}
	if br.Breaker.Closes == 0 {
		t.Fatalf("budgeted breaker never re-closed after recovery: %+v", br)
	}
	if br.InFlightEnd != 0 {
		t.Fatalf("budgeted variant left %d in flight", br.InFlightEnd)
	}
	// Retry amplification stays within the budget: ≤ (1+budget) attempts
	// per admitted request.
	admitted := br.Offered - br.ShedAdmission - br.ShedBrownout - br.ShedBreaker
	if attempts := admitted + br.Retries; attempts > 3*admitted {
		t.Fatalf("budgeted attempts %d exceed (1+budget)·admitted %d", attempts, 3*admitted)
	}
}
