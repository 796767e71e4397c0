// Fixture for the lockorder analyzer. The test declares classes A, B, C
// and leaf over the fields of S with order A → B → {C, leaf}: C and leaf
// are leaves (nothing may be acquired under them) and, as siblings with
// no connecting path, must never nest with each other.
package lockorder

import "sync"

type S struct {
	a sync.Mutex
	b sync.RWMutex
	c sync.Mutex
	l sync.Mutex
}

// Straight-line nesting in declared order is fine.
func ok(s *S) {
	s.a.Lock()
	s.b.Lock()
	s.c.Lock()
	s.c.Unlock()
	s.b.Unlock()
	s.a.Unlock()
}

// Transitive closure: A → C directly, without B in between.
func okSkip(s *S) {
	s.a.Lock()
	defer s.a.Unlock()
	s.c.Lock()
	s.c.Unlock()
}

// Releasing the earlier lock makes the later acquisition unordered.
func okRelease(s *S) {
	s.b.Lock()
	s.b.Unlock()
	s.a.Lock()
	s.a.Unlock()
}

// Re-acquiring a held class is allowed: several instances of one class
// (every tsdb stripe during a checkpoint) may legally be held together.
func okSameClass(s1, s2 *S) {
	s1.c.Lock()
	s2.c.Lock()
	s2.c.Unlock()
	s1.c.Unlock()
}

// A lock acquired inside a branch is not considered held after the join —
// the analyzer's documented under-approximation.
func okBranch(s *S, p bool) {
	if p {
		s.b.Lock()
	}
	s.a.Lock()
	s.a.Unlock()
}

// A goroutine starts with nothing held, so its body is walked with an
// empty held set even when the spawner holds a leaf.
func okGo(s *S) {
	s.c.Lock()
	defer s.c.Unlock()
	go func() {
		s.b.Lock()
		s.b.Unlock()
	}()
}

func inversion(s *S) {
	s.b.Lock()
	s.a.Lock() // want `acquires A while holding B .* the declared lock order is A before B`
	s.a.Unlock()
	s.b.Unlock()
}

// `defer b.Unlock()` keeps B held for the rest of the walk.
func deferHeld(s *S) {
	s.b.Lock()
	defer s.b.Unlock()
	s.a.Lock() // want `acquires A while holding B`
	s.a.Unlock()
}

// leaf has no outgoing edge: nothing may be acquired under it.
func underLeaf(s *S) {
	s.l.Lock()
	defer s.l.Unlock()
	s.c.Lock() // want `acquires C while holding leaf .* forbids`
	s.c.Unlock()
}

// C and leaf have no connecting path: forbidden in both directions.
func siblings(s *S) {
	s.c.Lock()
	s.l.Lock() // want `acquires leaf while holding C .* forbids`
	s.l.Unlock()
	s.c.Unlock()
}

// RLock is an acquisition like any other.
func rlockInversion(s *S) {
	s.c.Lock()
	s.b.RLock() // want `acquires B while holding C .* the declared lock order is B before C`
	s.b.RUnlock()
	s.c.Unlock()
}

func lockB(s *S) {
	s.b.Lock()
	s.b.Unlock()
}

func lockBIndirect(s *S) {
	lockB(s)
}

// Call-graph propagation: calling a function that may (transitively)
// acquire B is checked like acquiring B.
func viaCall(s *S) {
	s.c.Lock()
	defer s.c.Unlock()
	lockB(s) // want `calls lockB, which may acquire B while holding C`
}

func viaTwoCalls(s *S) {
	s.c.Lock()
	defer s.c.Unlock()
	lockBIndirect(s) // want `calls lockBIndirect, which may acquire B while holding C`
}

// A lock owned by another package is reached through that package's API:
// the test's spec says (*sync.WaitGroup).Wait acquires C, the way the repo
// spec says seglog.Log's methods acquire the segment log's locks.
func okForeign(s *S, wg *sync.WaitGroup) {
	s.b.Lock()
	defer s.b.Unlock()
	wg.Wait()
}

func foreignUnderLeaf(s *S, wg *sync.WaitGroup) {
	s.l.Lock()
	defer s.l.Unlock()
	wg.Wait() // want `calls Wait, which may acquire C while holding leaf .* forbids`
}

func waits(wg *sync.WaitGroup) {
	wg.Wait()
}

// ... and through a wrapper in this package, like tsdb.wal over seglog.Log.
func foreignViaWrapper(s *S, wg *sync.WaitGroup) {
	s.l.Lock()
	defer s.l.Unlock()
	waits(wg) // want `calls waits, which may acquire C while holding leaf`
}
