package agent

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestDialBacksOffFromSilentPublishers: a publisher that accepts and
// drops the stream before its first frame (a closed distrib.Source
// behind a listener that still accepts) is a failed publisher, and a
// sweep of nothing but such publishers sleeps for the backoff. The dial
// used to count as a success and the agent redialled with no sleep at
// all.
func TestDialBacksOffFromSilentPublishers(t *testing.T) {
	const backoff = 20 * time.Millisecond
	for _, publishers := range []int{1, 3} {
		var dials atomic.Int64
		addrs := make([]string, publishers)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			addrs[i] = ln.Addr().String()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					dials.Add(1)
					conn.Close()
				}
			}()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*backoff)
		err := New(Options{ID: "t"}).DialMulti(ctx, addrs, backoff)
		cancel()
		if err != context.DeadlineExceeded {
			t.Fatalf("%d publishers: DialMulti = %v, want the context's deadline", publishers, err)
		}
		// One sweep per backoff, and the one under way at the deadline.
		if got, most := dials.Load(), int64(11*publishers); got < int64(publishers) || got > most {
			t.Errorf("%d publishers: %d dials in 10 backoffs, want a full sweep and at most %d", publishers, got, most)
		}
	}
}
