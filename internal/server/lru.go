package server

import "container/list"

// lru is the one least-recently-used store of the package: a map, a
// recency list, and a budget that each entry is charged its cost
// against. Adding evicts the least recent entries until the charge fits
// the budget, and an entry whose cost alone exceeds the budget is
// refused. The result cache charges an entry 1, and so does the
// quarantine's failure memory; the chipcheck operator store charges an
// operator its bytes. It does no locking: each owner holds its own lock
// around every call.
type lru[V any] struct {
	budget int
	cost   int
	ll     list.List // *lruEntry[V], most recent first
	m      map[string]*list.Element
	// onEvict, when set, sees each entry the budget pushes out.
	onEvict func(V)
}

type lruEntry[V any] struct {
	key  string
	val  V
	cost int
}

func newLRU[V any](budget int, onEvict func(V)) lru[V] {
	return lru[V]{budget: budget, m: make(map[string]*list.Element), onEvict: onEvict}
}

// get returns key's entry, promoting it to most recent; the caller may
// change its value in place.
func (l *lru[V]) get(key string) (*lruEntry[V], bool) {
	el, ok := l.m[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]), true
}

// add stores val under key as the most recent entry, charged cost, in
// place of any value the key held, and evicts from the least recent end
// until the charge fits the budget. It returns the entry, or nil,
// storing nothing, when cost alone exceeds the budget.
func (l *lru[V]) add(key string, val V, cost int) *lruEntry[V] {
	if cost > l.budget {
		return nil
	}
	el, ok := l.m[key]
	if ok {
		l.ll.MoveToFront(el)
	} else {
		el = l.ll.PushFront(&lruEntry[V]{key: key})
		l.m[key] = el
	}
	e := el.Value.(*lruEntry[V])
	l.cost += cost - e.cost
	e.val, e.cost = val, cost
	for l.cost > l.budget {
		evicted := l.remove(l.ll.Back())
		if l.onEvict != nil {
			l.onEvict(evicted.val)
		}
	}
	return e
}

// remove drops el's entry and returns it.
func (l *lru[V]) remove(el *list.Element) *lruEntry[V] {
	e := l.ll.Remove(el).(*lruEntry[V])
	delete(l.m, e.key)
	l.cost -= e.cost
	return e
}

// drop removes key's entry, if it has one.
func (l *lru[V]) drop(key string) {
	if el, ok := l.m[key]; ok {
		l.remove(el)
	}
}

// clear removes every entry.
func (l *lru[V]) clear() {
	l.ll.Init()
	clear(l.m)
	l.cost = 0
}
