// Package pt is a stub of ptperf/internal/pt for the simlint sandbox:
// noparkinevent treats the predicate of (pt.Stream).ReapWhenStale as an
// event-callback root.
package pt

import "time"

type Stream struct{}

func (s *Stream) ReapWhenStale(staleness time.Duration, stale func(now time.Duration) bool) {}
