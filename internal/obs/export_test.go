package obs

import (
	"encoding/json"
	"io"
)

// WriteJSON renders the sorted records as indented JSON.
func (l *Ledger) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Migrations []MigrationRecord `json:"migrations"`
	}{Migrations: l.Records()})
}

// Count returns the number of observations (cold).
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values (cold).
func (h *Histogram) Sum() uint64 { return h.sum }
