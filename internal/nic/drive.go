package nic

import (
	"context"
	"errors"
	"io"
	"time"
)

// paceSlack is how far ahead of the wall clock a paced frame may be before
// Drive sleeps for it. Shorter waits are not worth a timer, whose wake-up
// is about a millisecond late on an idle process anyway.
const paceSlack = 2 * time.Millisecond

// Drive streams a traffic source into port, burst frames (default 64) per
// InjectBurst, and returns how many frames the port accepted; the rest are
// in its Imissed/NoMbuf/Ierrors counters. It is the one injection loop:
// the daemon's generator and pcap modes, the examples and the tests all run
// it, so every source takes the batched path a NIC's RSS bursts take.
//
// next fills in one frame and returns io.EOF after the last. Any other
// error ends the drive and is returned with the count so far, pending
// frames injected first. The frame's bytes may alias the source's read
// buffer: Drive copies them into its own staging before asking for more.
//
// With pace, a frame is injected no earlier than its timestamp's offset
// from the first frame's, on the wall clock; the pending partial burst is
// flushed before every sleep, so earlier frames go out on time. Without
// pace the source runs as fast as the port takes it.
//
// What a full queue costs is the port's overflow policy: Drop loses the
// frame and counts it once, Block waits, so a lossless drive needs a Block
// port. Cancelling ctx ends the drive with ctx.Err() and stops the port
// (Port.Stop), so a Block wait whose consumers have gone cannot hang.
func Drive(ctx context.Context, port *Port, burst int, pace bool, next func(*Frame) error) (accepted int, err error) {
	if burst <= 0 {
		burst = 64
	}
	defer context.AfterFunc(ctx, port.Stop)()
	var (
		staging = make([][]byte, burst)
		frames  = make([]Frame, 0, burst)
		f       Frame
		first   int64
		start   time.Time
	)
	flush := func() {
		if len(frames) > 0 {
			accepted += port.InjectBurst(frames)
			frames = frames[:0]
		}
	}
	for {
		if len(frames) == 0 {
			if err := ctx.Err(); err != nil {
				return accepted, err
			}
		}
		if err := next(&f); err != nil {
			flush()
			if errors.Is(err, io.EOF) {
				return accepted, nil
			}
			return accepted, err
		}
		if pace {
			if start.IsZero() {
				first, start = f.TS, time.Now()
			}
			if ahead := time.Duration(f.TS-first) - time.Since(start); ahead > paceSlack {
				flush()
				select {
				case <-time.After(ahead):
				case <-ctx.Done():
					return accepted, ctx.Err()
				}
			}
		}
		i := len(frames)
		staging[i] = append(staging[i][:0], f.Data...)
		frames = append(frames, Frame{Data: staging[i], TS: f.TS})
		if len(frames) == burst {
			flush()
		}
	}
}
