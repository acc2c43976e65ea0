package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// call is one in-flight computation shared by concurrent callers. The
// computation runs on its own goroutine under a context detached from
// any single caller's, so one client disconnecting never aborts work
// other clients are waiting for.
type call struct {
	done    chan struct{}      // closed when the flight finishes
	cancel  context.CancelFunc // cancels the flight's detached context
	waiters int                // callers still interested (mu-guarded)
	val     any
	err     error
}

// singleflight deduplicates concurrent calls with the same key: the
// first caller starts fn on a flight goroutine, later callers join and
// receive the same result.
//
// Cancellation follows last-waiter semantics: a caller whose ctx is
// cancelled stops waiting immediately (receiving its own ctx.Err()),
// but the flight keeps computing as long as at least one caller is
// still interested — its result lands in the caches fn writes to even
// if the original requester is gone. Only when the last waiter leaves
// is the flight's context cancelled, aborting the computation
// cooperatively; the key is cleared at the same time so a fresh
// request starts a fresh flight instead of joining a dying one.
//
// Such an orphaned flight still runs until it next polls its context,
// so every flight is counted in running until it returns: close waits
// for all of them, which is what lets the owner release what flights
// read (a mapped dataset) afterwards.
type singleflight struct {
	mu      sync.Mutex
	calls   map[string]*call
	running sync.WaitGroup
	closed  bool // mu-guarded; set by close, after which Do starts nothing
}

// errFlightsClosed is what Do returns once close has been called.
var errFlightsClosed = errors.New("serve: service closed")

// Do runs fn once per concurrent group of callers sharing key, passing
// it the flight's detached context. shared reports whether this caller
// joined a flight another caller started (or, equivalently, received a
// result it did not initiate). A caller arriving with an
// already-cancelled ctx returns its ctx.Err() without starting or
// joining any flight.
func (g *singleflight) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (v any, err error, shared bool) {
	if err := ctx.Err(); err != nil {
		return nil, err, false
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, errFlightsClosed, false
	}
	if g.calls == nil {
		g.calls = make(map[string]*call)
	}
	c, joined := g.calls[key]
	if !joined {
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c = &call{done: make(chan struct{}), cancel: cancel}
		g.calls[key] = c
		g.running.Add(1)
		go g.run(key, c, fctx, fn)
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, c.err, joined
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		if c.waiters == 0 {
			// Last interested caller gone: abort the flight and clear
			// the key, so a later request with a live context starts
			// fresh instead of inheriting a cancelled flight's error.
			if g.calls[key] == c {
				delete(g.calls, key)
			}
			c.cancel()
		}
		g.mu.Unlock()
		return nil, ctx.Err(), false
	}
}

// run executes one flight with panic containment: a panicking
// computation must still deregister the key and release waiters, or
// every later caller for this key would block forever. The panic is
// converted into an error delivered to every waiter.
func (g *singleflight) run(key string, c *call, fctx context.Context, fn func(context.Context) (any, error)) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("serve: panic in singleflight call: %v", r)
		}
		g.mu.Lock()
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		c.cancel() // release the detached context's resources
		close(c.done)
		g.running.Done()
	}()
	c.val, c.err = fn(fctx)
}

// close cancels every flight that still has waiters, refuses new ones,
// and returns once every flight — orphaned ones included — has returned.
func (g *singleflight) close() {
	g.mu.Lock()
	g.closed = true
	for _, c := range g.calls {
		c.cancel()
	}
	g.mu.Unlock()
	g.running.Wait()
}
