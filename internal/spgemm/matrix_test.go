package spgemm

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int64 { return int64(len(m.Col)) }

// At returns the value at (i, j), 0 when not stored. Linear scan.
func (m *Matrix) At(i, j int) uint32 {
	cols, vals := m.Row(i)
	for k, c := range cols {
		if int(c) == j {
			return vals[k]
		}
	}
	return 0
}
