package memsched

// StatMsg builds a status query.
func StatMsg() []byte { return []byte{opStat} }
