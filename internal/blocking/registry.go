package blocking

// All returns the ten baseline blockers with their survey-default
// configurations, in Table 10's order.
func All() []Blocker {
	return []Blocker{
		Standard{},
		AttributeClustering{},
		Canopy{},
		ExtendedCanopy{},
		QGrams{},
		ExtendedQGrams{},
		ExtendedSortedNeighborhood{},
		SuffixArrays{},
		ExtendedSuffixArrays{},
		TYPiMatch{},
	}
}

// byName returns the blocker with the given Table-10 name, or nil.
func byName(name string) Blocker {
	for _, b := range All() {
		if b.Name() == name {
			return b
		}
	}
	return nil
}
