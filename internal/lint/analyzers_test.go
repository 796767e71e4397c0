package lint_test

import (
	"strings"
	"testing"

	"ruru/internal/lint"
	"ruru/internal/lint/linttest"
)

// fixtureLockSpec mirrors the shape of the repo spec over the fixture's S
// type: A → B → {C, leaf}, so C and leaf are leaves and mutually
// forbidden siblings.
func fixtureLockSpec() *lint.LockOrderSpec {
	return &lint.LockOrderSpec{
		Classes: []lint.LockClass{
			{ID: "A", Type: "lockorder.S", Field: "a"},
			{ID: "B", Type: "lockorder.S", Field: "b"},
			{ID: "C", Type: "lockorder.S", Field: "c"},
			{ID: "leaf", Type: "lockorder.S", Field: "l"},
		},
		Order: [][2]string{
			{"A", "B"},
			{"B", "C"},
			{"B", "leaf"},
		},
		// Stands in for a lock behind another package's API.
		Acquires: map[string][]string{"(*sync.WaitGroup).Wait": {"C"}},
	}
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, "lockorder", lint.LockOrder(fixtureLockSpec()))
}

// TestLockOrderFedStatsRegression pins the PR-5 federation bug: Stats
// taking per-probe locks under the aggregator's map lock, two classes the
// spec leaves unordered.
func TestLockOrderFedStatsRegression(t *testing.T) {
	spec := &lint.LockOrderSpec{
		Classes: []lint.LockClass{
			{ID: "fed.aggMu", Type: "fedstats.Aggregator", Field: "mu"},
			{ID: "fed.aggProbeMu", Type: "fedstats.aggProbe", Field: "mu"},
		},
		// No edges: the two classes must never nest, in either order.
	}
	linttest.Run(t, "fedstats", lint.LockOrder(spec))
}

func TestAtomicMix(t *testing.T) {
	linttest.Run(t, "atomicmix", lint.AtomicMix())
}

// TestAtomicMixRingRegression pins the PR-2 bug class: a ring cursor
// updated through sync/atomic but read plainly in a depth helper.
func TestAtomicMixRingRegression(t *testing.T) {
	linttest.Run(t, "ringmix", lint.AtomicMix())
}

func TestNoAlloc(t *testing.T) {
	linttest.Run(t, "noalloc", lint.NoAlloc())
}

func TestMustCheck(t *testing.T) {
	spec := &lint.MustCheckSpec{Funcs: []string{
		"(*mustcheck.DB).Close",
		"(*mustcheck.DB).WriteBatch",
	}}
	linttest.Run(t, "mustcheck", lint.MustCheck(spec))
}

// TestIgnoreDirectives checks the directive rules directly: a bare
// directive and an unknown-analyzer directive are reported and suppress
// nothing, while a justified one suppresses exactly its line. The
// expectations are asserted programmatically because the diagnostics land
// on the directive lines themselves, where a want comment cannot sit.
func TestIgnoreDirectives(t *testing.T) {
	pkg, err := lint.LoadFixture("testdata/src/directive", "directive")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.AtomicMix()})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.String())
	}
	wantSubstrings := []string{
		// bare: the unjustified directive is an error AND the finding on
		// the next line survives.
		"requires a justification",
		"non-atomic access to field n", // bare's return x.n
		// unknown: the misspelled analyzer is an error AND the finding on
		// its own line survives.
		`unknown analyzer "atomicmux"`,
		"non-atomic access to field n", // unknown's x.n = 0
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(wantSubstrings), strings.Join(got, "\n"))
	}
	matched := make([]bool, len(diags))
	for _, w := range wantSubstrings {
		found := false
		for i, g := range got {
			if !matched[i] && strings.Contains(g, w) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic contains %q; got:\n%s", w, strings.Join(got, "\n"))
		}
	}
	// The justified directive must have suppressed its line entirely.
	for _, g := range got {
		if strings.Contains(g, "single-goroutine") {
			t.Errorf("justified suppression failed: %s", g)
		}
	}
}
