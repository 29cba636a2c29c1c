package sim

// AtFault schedules a strong fault-class event at absolute time t, ordered
// before every gate and every normal event sharing that timestamp — the
// class the chaos plane's AfterWeakFault pulses use.
func (e *Engine) AtFault(t Time, name string, fn func()) Event {
	return e.schedule(t, name, fn, false, classFault)
}

// Halt stops Run/RunUntil after the current event returns.
func (e *Engine) Halt() { e.halted = true }
