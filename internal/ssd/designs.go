package ssd

import (
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// OnEvict is OnEvictTask for a blocking process.
func (m *Manager) OnEvict(p *sim.Proc, pg *page.Page, dirty, random bool) error {
	return p.Await(func(t *sim.Task, done func(error)) { m.OnEvictTask(t, pg, dirty, random, done) })
}

// OnCheckpointFlush lets a design piggyback on a sharp checkpoint's page
// flushes: DW also writes checkpointed dirty random pages to the SSD
// (§3.2), filling it with useful data faster. The engine has already
// written the page to disk.
func (m *Manager) OnCheckpointFlush(p *sim.Proc, pg *page.Page, random bool) error {
	if m.cfg.Design != DW || !random || !m.Qualifies(random) || m.throttled() {
		return nil
	}
	_, err := m.admit(p, pg, false)
	return err
}
