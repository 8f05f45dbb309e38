package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Link is one receiver's session with the service. Latest reads the
// freshest-wins published value; Next consumes the link's bounded inbox
// (drop-oldest when the consumer lags). The inbox only starts filling
// after the first Next call — sessions that only ever poll Latest (the
// HTTP GET pattern) cost the publish fan-out a single atomic load, so
// per-frame publish work stays negligible even with thousands of
// poll-only sessions open. A Link additionally keeps per-session serving
// statistics — how many estimates it consumed and how stale they were.
type Link struct {
	id  string
	svc *Service

	wantsStream atomic.Bool // set by the first Next call; gates offer()

	mu       sync.Mutex
	inbox    []Estimate
	notify   chan struct{} // 1-buffered inbox signal for Next
	served   uint64
	dropped  uint64
	lastAge  time.Duration
	ageTotal time.Duration
	maxAge   time.Duration
	openedAt time.Time
}

// LinkStats is a point-in-time snapshot of one session.
type LinkStats struct {
	ID       string
	Served   uint64        // estimates read through Latest/Next
	Dropped  uint64        // inbox evictions (consumer slower than camera)
	Pending  int           // estimates waiting in the inbox
	LastAge  time.Duration // age of the most recently served estimate
	MeanAge  time.Duration
	MaxAge   time.Duration
	OpenedAt time.Time
}

// OpenLink creates a new link session. The id must be non-empty and
// unique among open sessions; when Config.MaxLinks is set, opening
// beyond the cap fails.
func (s *Service) OpenLink(id string) (*Link, error) {
	if id == "" {
		return nil, fmt.Errorf("serve: link id must be non-empty")
	}
	s.state.Lock()
	defer s.state.Unlock()
	if _, ok := s.links[id]; ok {
		return nil, fmt.Errorf("serve: link %q already open", id)
	}
	if s.cfg.MaxLinks > 0 && len(s.links) >= s.cfg.MaxLinks {
		return nil, fmt.Errorf("%w (%d)", ErrLinkLimit, s.cfg.MaxLinks)
	}
	l := &Link{id: id, svc: s, notify: make(chan struct{}, 1), openedAt: s.clock()}
	s.links[id] = l
	return l, nil
}

// Link returns the open session with the given id, opening it if needed —
// the auto-session behavior the HTTP layer uses. It fails only for an
// invalid id or when the MaxLinks cap is reached.
func (s *Service) Link(id string) (*Link, error) {
	s.state.RLock()
	l := s.links[id]
	s.state.RUnlock()
	if l != nil {
		return l, nil
	}
	l, err := s.OpenLink(id)
	if err != nil {
		// Another opener may have won the race; only then is the
		// session there to return.
		s.state.RLock()
		l = s.links[id]
		s.state.RUnlock()
		if l != nil {
			return l, nil
		}
		return nil, err
	}
	return l, nil
}

// CloseLink removes a session; it reports whether the id was open.
func (s *Service) CloseLink(id string) bool {
	s.state.Lock()
	defer s.state.Unlock()
	_, ok := s.links[id]
	delete(s.links, id)
	return ok
}

// Links returns a snapshot of every open session, sorted by id. The
// collected slice is sorted before any per-link state is touched, so map
// iteration order never reaches the output (vvd-lint maporder).
func (s *Service) Links() []LinkStats {
	s.state.RLock()
	links := make([]*Link, 0, len(s.links))
	for _, l := range s.links {
		links = append(links, l)
	}
	s.state.RUnlock()
	sort.Slice(links, func(i, j int) bool { return links[i].id < links[j].id })
	out := make([]LinkStats, len(links))
	for i, l := range links {
		out[i] = l.Stats()
	}
	return out
}

// Latest returns the freshest published estimate (freshest-wins — the
// paper's serving semantics: decode with the newest view of the channel)
// and records its age in the session statistics.
func (l *Link) Latest() (Estimate, bool) {
	e, ok := l.svc.Latest()
	if !ok {
		return Estimate{}, false
	}
	l.record(e)
	return e, true
}

// Next pops the oldest estimate from the session inbox, blocking up to
// timeout for one to arrive. Consumers that keep up see every estimate in
// order; consumers that lag see the newest LinkBuffer ones. The first
// Next call subscribes the session to the estimate stream: estimates
// published before it are only reachable through Latest.
func (l *Link) Next(timeout time.Duration) (Estimate, bool) {
	l.wantsStream.Store(true)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		l.mu.Lock()
		if len(l.inbox) > 0 {
			e := l.inbox[0]
			l.inbox = append(l.inbox[:0], l.inbox[1:]...)
			l.mu.Unlock()
			l.record(e)
			return e, true
		}
		l.mu.Unlock()
		select {
		case <-l.notify:
		case <-l.svc.done:
			// Service stopped; one last non-blocking drain attempt.
			l.mu.Lock()
			if len(l.inbox) > 0 {
				l.mu.Unlock()
				continue
			}
			l.mu.Unlock()
			return Estimate{}, false
		case <-deadline.C:
			return Estimate{}, false
		}
	}
}

// Stats returns a snapshot of the session counters.
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LinkStats{
		ID:       l.id,
		Served:   l.served,
		Dropped:  l.dropped,
		Pending:  len(l.inbox),
		LastAge:  l.lastAge,
		MaxAge:   l.maxAge,
		OpenedAt: l.openedAt,
	}
	if l.served > 0 {
		st.MeanAge = l.ageTotal / time.Duration(l.served)
	}
	return st
}

// record updates serving statistics for one consumed estimate.
func (l *Link) record(e Estimate) {
	age := e.AgeAt(l.svc.clock())
	l.mu.Lock()
	l.served++
	l.lastAge = age
	l.ageTotal += age
	if age > l.maxAge {
		l.maxAge = age
	}
	l.mu.Unlock()
	l.svc.served.Add(1)
	l.svc.ages.record(age)
}

// offer pushes a published estimate into the inbox, evicting the oldest
// entry when full. Runs on the estimator goroutine outside s.state (see
// publish) and takes only the link mutex — it must not touch service
// fields guarded by s.state. Sessions that never called Next are skipped
// with one atomic load.
func (l *Link) offer(e Estimate) {
	if !l.wantsStream.Load() {
		return
	}
	l.mu.Lock()
	if len(l.inbox) >= l.svc.cfg.LinkBuffer {
		l.inbox = append(l.inbox[:0], l.inbox[1:]...)
		l.dropped++
	}
	l.inbox = append(l.inbox, e)
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
}
