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
