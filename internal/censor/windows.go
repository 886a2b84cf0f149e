package censor

import (
	"net/netip"
	"time"
)

// Windows is a censor's table of timed windows: each key maps to the last
// virtual instant its window is live. Blackholed flows and residually
// censored servers are both tables of this shape. A window is live through
// its last instant inclusive, so a window that must end *before* a
// deadline (the blackholes' `now < start+window`) is stored one tick short
// of it.
type Windows[K comparable] struct {
	last map[K]time.Duration // lazily allocated
}

// Len is the number of windows held: the live ones plus expired ones not
// yet swept.
func (w *Windows[K]) Len() int { return len(w.last) }

// Reset drops every window and keeps the table's capacity.
func (w *Windows[K]) Reset() { clear(w.last) }

// Live reports whether k's window covers now. An expired window found on
// the way is deleted.
func (w *Windows[K]) Live(k K, now time.Duration) bool {
	last, ok := w.last[k]
	if !ok {
		return false
	}
	if now <= last {
		return true
	}
	delete(w.last, k)
	return false
}

// Open starts (or extends) k's window through last, first sweeping every
// window that ended before now, and reports how many it swept. The sweep
// keeps the table no larger than the set of live windows: a key no packet
// ever revisits would otherwise never leave it. The sweep's now-based
// predicate does not depend on map iteration order.
func (w *Windows[K]) Open(k K, now, last time.Duration) (swept int) {
	for key, l := range w.last {
		if now > l {
			delete(w.last, key)
			swept++
		}
	}
	w.Merge(k, last)
	return swept
}

// Merge extends k's window through last. A longer window already held wins
// (max-merge), so merging the same windows in any order, any number of
// times, yields the same table — the property the fleet's residual ledger
// relies on.
func (w *Windows[K]) Merge(k K, last time.Duration) {
	if cur, ok := w.last[k]; ok && cur >= last {
		return
	}
	if w.last == nil {
		w.last = make(map[K]time.Duration)
	}
	w.last[k] = last
}

// ResidualTable is the residual-censorship table behind every
// ResidualCarrier: server endpoints that stay censored after a censorship
// event. Windows are inclusive of their expiry. The key is the server's
// (IP, port) alone; the client address is not part of it, so one client's
// censorship event taints the server for every client behind the same
// censor. That choice decides every China HTTP fleet number: routed-only
// Strategy 1 fleets serve 26% at 4 clients per cell and 53% at 1, against
// Table 2's 54% (DESIGN.md, GFW). A key with the client in it moves seeded
// draws, so it belongs to a benchmark re-baseline with a cited source.
// The "ip:port" key string exists only at the carrier boundary; in the
// table a server is a netip.AddrPort, so the per-packet lookup formats
// nothing.
type ResidualTable struct {
	Windows[netip.AddrPort]
}

// ExportResidual implements ResidualCarrier: it reports every live window
// as (key, time remaining at now). Expired windows are skipped, not
// deleted — Live and Open own the sweeping. The emit order is map order
// and therefore unspecified; callers needing determinism must fold with an
// order-independent merge.
func (t *ResidualTable) ExportResidual(now time.Duration, emit func(key string, remaining time.Duration)) {
	for srv, last := range t.last {
		if now <= last {
			emit(srv.String(), last-now)
		}
	}
}

// SeedResidual implements ResidualCarrier: it merges a window expiring at
// expiry on the table's clock. A key that is not an "ip:port" names no
// server and is ignored.
func (t *ResidualTable) SeedResidual(key string, expiry time.Duration) {
	if srv, err := netip.ParseAddrPort(key); err == nil {
		t.Merge(srv, expiry)
	}
}
