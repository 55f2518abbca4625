package frontend

// Accessors only the tests use.

// SetTable installs a new routing table (control plane push, §5).
func (f *Frontend) SetTable(rt RoutingTable) error {
	return f.SetTableGen(rt, f.state.gen+1)
}
