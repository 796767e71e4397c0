package ring

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, 1000} {
		if _, err := New[int](n); err != ErrBadCapacity {
			t.Errorf("New(%d) err = %v, want ErrBadCapacity", n, err)
		}
	}
	for _, n := range []int{1, 2, 4, 1024} {
		r, err := New[int](n)
		if err != nil || r.Cap() != n {
			t.Errorf("New(%d) = %v, %v", n, r, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(3) did not panic")
		}
	}()
	MustNew[int](3)
}

func TestPushPopFIFO(t *testing.T) {
	r := MustNew[int](8)
	for i := 0; i < 8; i++ {
		if !r.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Push(99) {
		t.Fatal("push into full ring succeeded")
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d", r.Len())
	}
	for i := 0; i < 8; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d, %v", i, v, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
}

func TestWrapAround(t *testing.T) {
	r := MustNew[int](4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !r.Push(round*10 + i) {
				t.Fatalf("push failed at round %d", round)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.Pop()
			if !ok || v != round*10+i {
				t.Fatalf("round %d: pop = %d, %v", round, v, ok)
			}
		}
	}
}

func TestBurst(t *testing.T) {
	r := MustNew[int](8)
	in := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	n := r.PushBurst(in)
	if n != 8 {
		t.Fatalf("PushBurst = %d, want 8", n)
	}
	out := make([]int, 5)
	n = r.PopBurst(out)
	if n != 5 {
		t.Fatalf("PopBurst = %d, want 5", n)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	n = r.PopBurst(out)
	if n != 3 {
		t.Fatalf("second PopBurst = %d, want 3", n)
	}
	n = r.PopBurst(out)
	if n != 0 {
		t.Fatalf("empty PopBurst = %d", n)
	}
}

func TestPopReleasesReferences(t *testing.T) {
	r := MustNew[*int](4)
	v := new(int)
	r.Push(v)
	r.Pop()
	// The slot must be zeroed so the GC can collect v once callers drop it.
	if r.buf[0] != nil {
		t.Fatal("slot not cleared after Pop")
	}
	r.Push(v)
	out := make([]*int, 1)
	r.PopBurst(out)
	if r.buf[1] != nil {
		t.Fatal("slot not cleared after PopBurst")
	}
}

func TestConcurrentSPSC(t *testing.T) {
	r := MustNew[uint64](1024)
	const total = 1 << 18
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; {
			if r.Push(i) {
				i++
			}
		}
	}()
	var sum, count uint64
	go func() {
		defer wg.Done()
		for count < total {
			if v, ok := r.Pop(); ok {
				if v != count {
					t.Errorf("out of order: got %d want %d", v, count)
					return
				}
				sum += v
				count++
			}
		}
	}()
	wg.Wait()
	want := uint64(total) * (total - 1) / 2
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestConcurrentBurstSPSC(t *testing.T) {
	r := MustNew[uint64](256)
	const total = 1 << 16
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]uint64, 64)
		next := uint64(0)
		for next < total {
			n := 0
			for n < len(buf) && next+uint64(n) < total {
				buf[n] = next + uint64(n)
				n++
			}
			pushed := r.PushBurst(buf[:n])
			next += uint64(pushed)
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]uint64, 64)
		expect := uint64(0)
		for expect < total {
			n := r.PopBurst(buf)
			for i := 0; i < n; i++ {
				if buf[i] != expect {
					t.Errorf("out of order: got %d want %d", buf[i], expect)
					return
				}
				expect++
			}
		}
	}()
	wg.Wait()
}

func TestLenNeverExceedsCap(t *testing.T) {
	f := func(ops []bool) bool {
		r := MustNew[int](16)
		for _, push := range ops {
			if push {
				r.Push(1)
			} else {
				r.Pop()
			}
			if l := r.Len(); l < 0 || l > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSPSCSingleConsumerContract pins the Ring's concurrency contract:
// exactly one producer and one consumer, mixed single and burst operations,
// strict FIFO with exactly-once delivery, and consistent introspection.
// Draining one Ring from several goroutines is NOT part of the contract —
// that loses or duplicates items by design.
func TestSPSCSingleConsumerContract(t *testing.T) {
	r := MustNew[uint64](64)
	const total = 1 << 16
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the single producer
		defer wg.Done()
		buf := make([]uint64, 24)
		next := uint64(0)
		for next < total {
			if next%3 == 0 { // mix single pushes in
				if r.Push(next) {
					next++
				} else {
					runtime.Gosched() // full: let the consumer run
				}
				continue
			}
			n := 0
			for n < len(buf) && next+uint64(n) < total {
				v := next + uint64(n)
				if v%3 == 0 { // leave for the single-push branch
					break
				}
				buf[n] = v
				n++
			}
			pushed := r.PushBurst(buf[:n])
			next += uint64(pushed)
			if pushed == 0 {
				runtime.Gosched()
			}
		}
	}()
	go func() { // the single consumer
		defer wg.Done()
		out := make([]uint64, 17)
		expect := uint64(0)
		for expect < total {
			if expect%5 == 0 {
				if v, ok := r.Pop(); ok {
					if v != expect {
						t.Errorf("Pop out of order: got %d want %d", v, expect)
						return
					}
					expect++
				} else {
					runtime.Gosched() // empty: let the producer run
				}
				continue
			}
			n := r.PopBurst(out)
			for i := 0; i < n; i++ {
				if out[i] != expect {
					t.Errorf("PopBurst out of order: got %d want %d", out[i], expect)
					return
				}
				expect++
			}
			if n == 0 {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("ring not empty: %d", r.Len())
	}
	if wm := r.Watermark(); wm <= 0 || wm > r.Cap() {
		t.Fatalf("watermark %d outside (0, %d]", wm, r.Cap())
	}
	if r.Free() != r.Cap() {
		t.Fatalf("free = %d, want %d", r.Free(), r.Cap())
	}
}

func TestIntrospection(t *testing.T) {
	r := MustNew[int](8)
	if r.Free() != 8 || r.Watermark() != 0 {
		t.Fatalf("fresh ring: free=%d watermark=%d", r.Free(), r.Watermark())
	}
	r.PushBurst([]int{1, 2, 3, 4, 5})
	if r.Free() != 3 || r.Watermark() != 5 {
		t.Fatalf("after burst: free=%d watermark=%d", r.Free(), r.Watermark())
	}
	out := make([]int, 4)
	r.PopBurst(out)
	if r.Free() != 7 || r.Watermark() != 5 {
		t.Fatalf("after pop: free=%d watermark=%d (watermark must not recede)", r.Free(), r.Watermark())
	}
	r.Push(6)
	if r.Watermark() != 5 {
		t.Fatalf("watermark rose without a new high: %d", r.Watermark())
	}
}

func BenchmarkPushPop(b *testing.B) {
	r := MustNew[uint64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Push(uint64(i))
		r.Pop()
	}
}

func BenchmarkBurst32(b *testing.B) {
	r := MustNew[uint64](1024)
	in := make([]uint64, 32)
	out := make([]uint64, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PushBurst(in)
		r.PopBurst(out)
	}
}
