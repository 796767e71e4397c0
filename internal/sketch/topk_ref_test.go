package sketch

// The indexed heap against the summary it replaced. refTopK below is the
// map+heap TopK (a Go map from key to heap position, Item values moved
// through the heap on every swap), kept unchanged as the reference:
// TestTopKMatchesReference and FuzzSketch feed both the same updates and
// require identical Top output, Min, Total and Evictions.

import (
	"cmp"
	"slices"
)

type refTopK[K comparable] struct {
	k     int
	idx   map[K]int32 // key -> heap position
	items []Item[K]   // min-heap on Count
	total uint64      // sum of all increments
	evict uint64      // replacements of the minimum
}

func newRefTopK[K comparable](k int) *refTopK[K] {
	if k <= 0 {
		k = 1024
	}
	if k < 8 {
		k = 8
	}
	return &refTopK[K]{
		k:     k,
		idx:   make(map[K]int32, k),
		items: make([]Item[K], 0, k),
	}
}

func (t *refTopK[K]) Update(key K, inc uint64) {
	t.total += inc
	if i, ok := t.idx[key]; ok {
		t.items[i].Count += inc
		t.siftDown(int(i))
		return
	}
	if len(t.items) < t.k {
		t.items = append(t.items, Item[K]{Key: key, Count: inc})
		t.idx[key] = int32(len(t.items) - 1)
		t.siftUp(len(t.items) - 1)
		return
	}
	// Replace the minimum: the newcomer inherits its count as error.
	old := &t.items[0]
	delete(t.idx, old.Key)
	*old = Item[K]{Key: key, Count: old.Count + inc, Err: old.Count}
	t.idx[key] = 0
	t.evict++
	t.siftDown(0)
}

func (t *refTopK[K]) UpdateLat(key K, inc uint64, lat float64) {
	t.total += inc
	if i, ok := t.idx[key]; ok {
		it := &t.items[i]
		it.Count += inc
		it.Lat.merge(lat)
		t.siftDown(int(i))
		return
	}
	if len(t.items) < t.k {
		t.items = append(t.items, Item[K]{Key: key, Count: inc})
		i := len(t.items) - 1
		t.items[i].Lat.merge(lat)
		t.idx[key] = int32(i)
		t.siftUp(i)
		return
	}
	old := &t.items[0]
	delete(t.idx, old.Key)
	*old = Item[K]{Key: key, Count: old.Count + inc, Err: old.Count}
	old.Lat.merge(lat)
	t.idx[key] = 0
	t.evict++
	t.siftDown(0)
}

func (t *refTopK[K]) swap(i, j int) {
	t.items[i], t.items[j] = t.items[j], t.items[i]
	t.idx[t.items[i].Key] = int32(i)
	t.idx[t.items[j].Key] = int32(j)
}

func (t *refTopK[K]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.items[parent].Count <= t.items[i].Count {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *refTopK[K]) siftDown(i int) {
	n := len(t.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && t.items[l].Count < t.items[small].Count {
			small = l
		}
		if r < n && t.items[r].Count < t.items[small].Count {
			small = r
		}
		if small == i {
			return
		}
		t.swap(i, small)
		i = small
	}
}

func (t *refTopK[K]) Contains(key K) bool {
	_, ok := t.idx[key]
	return ok
}

func (t *refTopK[K]) Min() uint64 {
	if len(t.items) < t.k {
		return 0
	}
	return t.items[0].Count
}

func (t *refTopK[K]) Len() int          { return len(t.items) }
func (t *refTopK[K]) Total() uint64     { return t.total }
func (t *refTopK[K]) Evictions() uint64 { return t.evict }

func (t *refTopK[K]) Top(dst []Item[K], n int) []Item[K] {
	start := len(dst)
	dst = append(dst, t.items...)
	out := dst[start:]
	slices.SortFunc(out, func(a, b Item[K]) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(b.Err, a.Err)
	})
	if n > 0 && n < len(out) {
		dst = dst[:start+n]
	}
	return dst
}
