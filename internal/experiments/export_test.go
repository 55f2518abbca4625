package experiments

// Cell finds the value at (row label, column name); the row label is the
// first cell. When several header columns share a name, the first match
// wins. Returns "" when absent.
func (t *Table) Cell(rowLabel, col string) string {
	ci := -1
	for i, h := range t.Header {
		if h == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return ""
	}
	for _, row := range t.Rows {
		if len(row) > ci && row[0] == rowLabel {
			return row[ci]
		}
	}
	return ""
}
