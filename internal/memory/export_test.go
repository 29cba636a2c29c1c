package memory

// SwapIns and SwapOuts return the page traffic counters.
func (s *Store) SwapIns() uint64  { return s.swapIns }
func (s *Store) SwapOuts() uint64 { return s.swapOuts }
