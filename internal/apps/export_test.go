package apps

// Names lists the Table 4 application names in order.
func Names() []string {
	return []string{"game", "traffic", "dance", "bb", "bike", "amber", "logo"}
}
