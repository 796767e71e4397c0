package core

import (
	"context"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"ruru/internal/nic"
	"ruru/internal/pkt"
)

// TestFlowTableAgainstMapModel drives the one table implementation with a
// random insert / lookup / touch / remove / sweep stream at 256 slots, most
// keys crowded onto a handful of home slots (long probe chains that wrap
// the array end), and checks it against a map after every operation: every
// live key found with its value, nothing else live, Len and the 85% bound
// exact, the admitter's bytes equal to what is live, every Release echoing
// the record's promoted flag, every eviction reported exactly once.
func TestFlowTableAgainstMapModel(t *testing.T) {
	const timeout = 4000
	type record struct {
		val      uint64
		lastTS   int64
		promoted bool
	}
	rng := rand.New(rand.NewSource(16))
	adm := &fakeAdmitter{}
	tbl := newFlowTable[uint64](256, timeout, adm)
	charge := slotBytes[uint64]()
	var releasedBytes int64
	released := 0 // entries of adm.released already summed
	model := make(map[FlowKey]record)
	var evictions uint64
	now := int64(1)
	tbl.onEvict = func(lastTS int64, val uint64) {
		evictions++
		for k, r := range model {
			if r.val == val {
				if r.lastTS != lastTS || now-lastTS <= timeout {
					t.Fatalf("eviction of %v at %d reported lastTS %d, model %d", k, now, lastTS, r.lastTS)
				}
				delete(model, k)
				return
			}
		}
		t.Fatalf("evicted val %d is not in the model", val)
	}

	keys := make([]FlowKey, 400)
	hashes := make([]uint32, len(keys))
	for i := range keys {
		keys[i] = FlowKey{
			Client:     netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			Server:     netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			ClientPort: uint16(1024 + i), ServerPort: 443,
		}
		hashes[i] = rng.Uint32()
		if i%4 != 0 {
			hashes[i] = uint32(i % 5) // crowd three quarters onto five chains
		}
	}

	check := func(op string) {
		t.Helper()
		if tbl.Len() != len(model) || tbl.Len() > tbl.maxLive {
			t.Fatalf("%s: Len %d, model %d, bound %d", op, tbl.Len(), len(model), tbl.maxLive)
		}
		liveSlots := 0
		for i := range tbl.slots {
			if tbl.slots[i].live {
				liveSlots++
			}
		}
		if liveSlots != len(model) {
			t.Fatalf("%s: %d live slots for %d model keys", op, liveSlots, len(model))
		}
		for i, k := range keys {
			idx, found := tbl.find(hashes[i], k)
			r, want := model[k]
			if found != want {
				t.Fatalf("%s: key %d found=%v, model has it=%v", op, i, found, want)
			}
			if found {
				if s := &tbl.slots[idx]; s.val != r.val || s.lastTS != r.lastTS || s.promoted != r.promoted {
					t.Fatalf("%s: key %d slot {%d %d %v}, model %+v", op, i, s.val, s.lastTS, s.promoted, r)
				}
			}
		}
		for ; released < len(adm.released); released++ {
			releasedBytes += adm.released[released].bytes
		}
		if got := adm.admitted - releasedBytes; got != int64(len(model))*charge {
			t.Fatalf("%s: admitter holds %d bytes for %d entries of %d", op, got, len(model), charge)
		}
		if tbl.expired != evictions {
			t.Fatalf("%s: expired %d, evict hook ran %d times", op, tbl.expired, evictions)
		}
	}

	var nextVal, refusedFull uint64
	for step := 0; step < 20000; step++ {
		now += int64(rng.Intn(8))
		i := rng.Intn(len(keys))
		k, h := keys[i], hashes[i]
		idx, found := tbl.find(h, k)
		switch op := rng.Intn(10); {
		case op < 5: // insert, or touch when present
			if found {
				tbl.slots[idx].lastTS = now
				r := model[k]
				r.lastTS = now
				model[k] = r
				break
			}
			atBound := tbl.Len() >= tbl.maxLive
			adm.refuse, adm.promote = rng.Intn(8) == 0, rng.Intn(3) == 0
			before := adm.admitted
			s := tbl.insert(idx, h, k, now)
			switch {
			case atBound:
				refusedFull++
				if s != nil || adm.admitted != before {
					t.Fatalf("step %d: insert at the occupancy bound went through", step)
				}
			case s == nil:
				if adm.admitted != before {
					t.Fatalf("step %d: refused insert was charged", step)
				}
			default:
				nextVal++
				s.val = nextVal
				model[k] = record{val: nextVal, lastTS: now, promoted: adm.promote}
			}
		case op < 7: // remove
			if found {
				want := model[k].promoted
				tbl.remove(idx)
				delete(model, k)
				if got := adm.released[len(adm.released)-1].promoted; got != want {
					t.Fatalf("step %d: Release promoted=%v, record was admitted promoted=%v", step, got, want)
				}
			}
		case op < 9: // the per-packet incremental sweep
			tbl.maybeSweep(now)
		default: // a quiet spell, then a full sweep
			if rng.Intn(20) == 0 {
				now += timeout / 2
				tbl.SweepAll(now)
				for k, r := range model {
					if now-r.lastTS > timeout {
						t.Fatalf("step %d: SweepAll left %v idle for %d", step, k, now-r.lastTS)
					}
				}
			}
		}
		if tbl.full != refusedFull {
			t.Fatalf("step %d: full %d, want %d", step, tbl.full, refusedFull)
		}
		check("step")
	}
	if refusedFull == 0 || evictions == 0 {
		t.Fatalf("stream never reached the bound (%d) or never evicted (%d)", refusedFull, evictions)
	}
	now += 2 * timeout
	tbl.SweepAll(now)
	check("final sweep")
	if tbl.Len() != 0 {
		t.Fatalf("%d entries survive a sweep past every timeout", tbl.Len())
	}
}

// meanDisplacement is the mean distance of t's live slots from their home
// slot: the probe steps a lookup of a live flow walks past other flows.
func meanDisplacement[E any](t *flowTable[E]) float64 {
	var sum, live int
	for i := range t.slots {
		if s := &t.slots[i]; s.live {
			sum += int((uint32(i) - mix(s.hash)&t.mask) & t.mask)
			live++
		}
	}
	if live == 0 {
		return 0
	}
	return float64(sum) / float64(live)
}

// TestSameFoldFloodKeepsProbesShort floods the engine with 4096 SYNs whose
// source address's low 16 bits equal the source port. The symmetric
// Toeplitz hash is a linear function of the tuple's 16-bit XOR-fold, which
// the flood holds constant: every SYN lands on one queue with one Toeplitz
// value. Indexed by that value, the table would chain all 4096 flows from
// one home slot, a mean displacement of 2047.5 and a walk of the whole
// chain per SYN. Indexed by the queue's seeded flow hash, the flows spread.
func TestSameFoldFloodKeepsProbesShort(t *testing.T) {
	const (
		queues = 4
		flows  = 4096
	)
	pool := nic.NewMempool(1024, 128)
	port, err := nic.NewPort(nic.PortConfig{Queues: queues, QueueDepth: 256, Pool: pool, Policy: nic.Block})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{Port: port, Sink: SinkFunc(func(*Measurement) {}),
		Table: TableConfig{Capacity: 1 << 14}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx) }()

	folds := make(map[uint32]bool)
	start := time.Now()
	for i := 0; i < flows; i++ {
		p := uint16(1024 + i)
		src := netip.AddrFrom4([4]byte{10, 0, byte(p >> 8), byte(p)})
		folds[hasher.HashTuple(src, netip.AddrFrom4([4]byte{192, 0, 2, 1}), p, 443)] = true
		if !inject(port, buildFrame(t, src.String(), "192.0.2.1", p, 443, pkt.TCPSyn, 100, 0), int64(i)*1000) {
			t.Fatalf("SYN %d refused: %+v", i, port.Stats())
		}
	}
	waitFor(t, func() bool { return eng.Stats().Table.SYNs == flows })
	perSYN := time.Since(start) / flows
	cancel()
	<-done
	if len(folds) != 1 {
		t.Fatalf("the flood has %d distinct Toeplitz values, want 1", len(folds))
	}

	for q := range eng.queues {
		tbl := eng.queues[q].table
		if tbl.Len() == 0 {
			continue
		}
		if tbl.Len() != flows {
			t.Fatalf("queue %d holds %d of the %d same-fold flows", q, tbl.Len(), flows)
		}
		hashes := make(map[uint32]bool)
		for i := range tbl.slots {
			if s := &tbl.slots[i]; s.live {
				hashes[s.hash] = true
			}
		}
		d := meanDisplacement(&tbl.flowTable)
		t.Logf("queue %d: %d flows, %d distinct table hashes, mean displacement %.2f, %v per SYN end to end",
			q, tbl.Len(), len(hashes), d, perSYN)
		if d > 2 {
			t.Errorf("mean displacement %.2f slots, want <= 2", d)
		}
	}
}
