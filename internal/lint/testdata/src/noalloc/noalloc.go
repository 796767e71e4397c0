// Fixture for the noalloc analyzer: allocating constructs inside
// functions annotated //ruru:noalloc, and the warm-up-guard and reuse
// idioms that are allowed.
package noalloc

import "fmt"

type buf struct {
	scratch []byte
	vals    []float64
}

//ruru:noalloc
func useMake(n int) []int {
	s := make([]int, n) // want `make allocates`
	return s
}

//ruru:noalloc
func useNew() *buf {
	return new(buf) // want `new allocates`
}

// An allocation behind a capacity test is the init-once warm-up idiom.
//
//ruru:noalloc
func warmup(b *buf, need int) {
	if cap(b.scratch) < need {
		b.scratch = make([]byte, 0, need)
	}
	b.scratch = b.scratch[:0]
}

// Nil tests guard lazily allocated state the same way.
//
//ruru:noalloc
func nilGuard(b *buf) {
	if b.scratch == nil {
		b.scratch = make([]byte, 0, 64)
	}
}

//ruru:noalloc
func sliceLit() []int {
	return []int{1, 2, 3} // want `slice literal allocates`
}

//ruru:noalloc
func mapLit() map[string]int {
	return map[string]int{} // want `map literal allocates`
}

//ruru:noalloc
func ptrLit() *buf {
	return &buf{} // want `&composite literal escapes to the heap`
}

// A plain value literal stays on the stack.
//
//ruru:noalloc
func valueLit() buf {
	return buf{}
}

//ruru:noalloc
func closure(n int) func() int {
	return func() int { return n } // want `closure captures n`
}

// A capture-free literal compiles to a static function.
//
//ruru:noalloc
func staticClosure() func() int {
	return func() int { return 1 }
}

//ruru:noalloc
func format(n int) {
	fmt.Println(n) // want `fmt.Println allocates`
}

//ruru:noalloc
func concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//ruru:noalloc
func convert(b []byte) string {
	return string(b) // want `conversion allocates a copy`
}

type sink interface{ put(v any) }

//ruru:noalloc
func box(s sink, v [4]int) {
	s.put(v) // want `converting \[4\]int to interface .* boxes the value`
}

// Pointer-shaped values fit the interface word without boxing.
//
//ruru:noalloc
func noBox(s sink, p *buf) {
	s.put(p)
}

// Methods of a generic type are checked like any other: the hot flow table
// is one. A value of type-parameter type is not an interface value, whatever
// its constraint — handing it to an interface parameter boxes it.
type slots[E any] struct{ vals []E }

//ruru:noalloc
func (t *slots[E]) grow(n int) {
	t.vals = make([]E, n) // want `make allocates`
}

//ruru:noalloc
func (t *slots[E]) boxElem(s sink, i int) {
	s.put(t.vals[i]) // want `converting E to interface .* boxes the value`
}

// Type parameter to the same type parameter is a plain copy.
//
//ruru:noalloc
func (t *slots[E]) set(i int, v E) {
	t.vals[i] = v
	t.set(i, v)
}

//ruru:noalloc
func freshAppend(n int) int {
	var s []int
	for i := 0; i < n; i++ {
		s = append(s, i) // want `append grows s, a locally declared slice`
	}
	return len(s)
}

// Appending to caller-owned scratch is the amortized idiom.
//
//ruru:noalloc
func reusedAppend(b *buf, v float64) {
	b.vals = append(b.vals, v)
}

// Unannotated functions may allocate freely.
func unannotated() []int {
	return make([]int, 8)
}

// An intentionally cold allocation can be suppressed with a justified
// directive.
//
//ruru:noalloc
func coldPath(b *buf) {
	b.scratch = make([]byte, 16) //ruru:ignore noalloc one-time reconfiguration, pinned by the alloc benchmark
}
