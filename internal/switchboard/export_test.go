package switchboard

// ListMsg builds a List request body.
func ListMsg() []byte { return []byte{opList} }
