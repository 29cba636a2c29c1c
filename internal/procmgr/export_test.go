package procmgr

import "demosmp/internal/policy"

// SetPolicy attaches a policy (after construction or migration restore).
func (m *Manager) SetPolicy(p policy.Policy) { m.pol = p }

// Policy returns the attached policy.
func (m *Manager) Policy() policy.Policy { return m.pol }
