//go:build go1.23

package sim

import "iter"

// start makes body the coroutine behind p. iter.Pull gives exactly the
// transfer of control a process needs: next switches straight to the
// coroutine's goroutine and returns when body calls yield or returns, with
// no scheduler run queue and no thread wake-up on either switch; a panic or
// runtime.Goexit in body is re-raised in the caller of next. body starts on
// the first next.
//
// This is the one file that needs a newer language version than go.mod
// declares (bench/go.mod pins the module graph to go 1.22); the build
// constraint above is what grants it.
func (p *Proc) start(body func()) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body()
	})
}
