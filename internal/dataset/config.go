package dataset

import (
	"fmt"

	"repro/internal/gazetteer"
	"repro/internal/record"
)

// Config controls generation. The zero value is not usable; start from a
// preset (ItalyConfig, RandomSetConfig, FullShapeConfig) and override.
type Config struct {
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed int64
	// Persons is the number of ground-truth individuals to create.
	Persons int
	// Communities and their relative weights; reports are split between
	// them proportionally. Must be non-empty with positive weights.
	Communities []CommunityWeight
	// TestimonyFraction is the probability a report arrives as a Page of
	// Testimony rather than through a victim list.
	TestimonyFraction float64
	// ReportsDist[i] is the relative weight of a person receiving i+1
	// reports. Length at most 8 (the archival experts' duplicate bound).
	ReportsDist []float64
	// MVSubmitterShare, when positive, routes this fraction of all
	// testimony reports through one extreme-volume submitter with the
	// fixed pattern {First, Last, Father, BirthPlace, DeathPlace}.
	MVSubmitterShare float64
	// ListCount is the number of victim lists to spread list reports
	// over; 0 derives one list per ~150 list reports.
	ListCount int
	// TownsPerCounty sizes the synthetic gazetteer.
	TownsPerCounty int

	// Corruption rates.
	VariantRate float64 // swap a name for an equivalence-class variant
	TypoRate    float64 // clerical error in a name
	YearSlip    float64 // birth year off by 1-3
	SecondName  float64 // add a second first name
}

// CommunityWeight pairs a community with its sampling weight.
type CommunityWeight struct {
	Comm   gazetteer.Community
	Weight float64
}

// Validate reports the first configuration problem.
func (c *Config) Validate() error {
	switch {
	case c.Persons <= 0:
		return fmt.Errorf("dataset: Persons must be positive, got %d", c.Persons)
	case len(c.Communities) == 0:
		return fmt.Errorf("dataset: at least one community required")
	case len(c.ReportsDist) == 0 || len(c.ReportsDist) > MaxReportsPerPerson:
		return fmt.Errorf("dataset: ReportsDist length must be 1..%d, got %d", MaxReportsPerPerson, len(c.ReportsDist))
	case c.TestimonyFraction < 0 || c.TestimonyFraction > 1:
		return fmt.Errorf("dataset: TestimonyFraction %v out of [0,1]", c.TestimonyFraction)
	case c.MVSubmitterShare < 0 || c.MVSubmitterShare > 1:
		return fmt.Errorf("dataset: MVSubmitterShare %v out of [0,1]", c.MVSubmitterShare)
	}
	total := 0.0
	for _, cw := range c.Communities {
		if cw.Comm < 0 || int(cw.Comm) >= gazetteer.NumCommunities {
			return fmt.Errorf("dataset: unknown community %d, want 0..%d", cw.Comm, gazetteer.NumCommunities-1)
		}
		if cw.Weight <= 0 {
			return fmt.Errorf("dataset: community %v has non-positive weight", cw.Comm)
		}
		total += cw.Weight
	}
	if total <= 0 {
		return fmt.Errorf("dataset: community weights sum to %v", total)
	}
	sum := 0.0
	for _, w := range c.ReportsDist {
		if w < 0 {
			return fmt.Errorf("dataset: negative ReportsDist weight %v", w)
		}
		sum += w
	}
	if sum <= 0 {
		return fmt.Errorf("dataset: ReportsDist weights sum to %v", sum)
	}
	return nil
}

// MaxReportsPerPerson is the archival experts' estimate of the maximal
// number of duplicate reports per victim.
const MaxReportsPerPerson = 8

// defaultReportsDist skews toward single reports with a thin tail to eight,
// matching the experts' "eight records or less" estimate and the pilot
// observation that valid sets never exceeded seven.
var defaultReportsDist = []float64{0.50, 0.24, 0.12, 0.07, 0.04, 0.02, 0.008, 0.002}

// ItalyConfig mirrors the ItalySet: a homogeneous single-community set of
// about 9,499 records, testimony-heavy, with the MV submitter supplying
// roughly 1,400 of them.
func ItalyConfig() Config {
	return Config{
		Seed:    1944,
		Persons: 4600, // ~9.5K records under defaultReportsDist
		Communities: []CommunityWeight{
			{Comm: gazetteer.Italy, Weight: 1},
		},
		TestimonyFraction: 0.72,
		ReportsDist:       append([]float64(nil), defaultReportsDist...),
		MVSubmitterShare:  0.205, // ~1400/9499 over all reports, applied to testimonies
		TownsPerCounty:    10,
		VariantRate:       0.25,
		TypoRate:          0.04,
		YearSlip:          0.06,
		SecondName:        0.08,
	}
}

// RandomSetConfig mirrors the stratified 100K sample: six communities,
// list-heavy like the full database. persons scales the dataset
// (~2.1 reports/person).
func RandomSetConfig(persons int) Config {
	return Config{
		Seed:    1953,
		Persons: persons,
		Communities: []CommunityWeight{
			{Comm: gazetteer.Italy, Weight: 0.8},
			{Comm: gazetteer.Poland, Weight: 3.0},
			{Comm: gazetteer.Germany, Weight: 1.2},
			{Comm: gazetteer.Hungary, Weight: 1.6},
			{Comm: gazetteer.Greece, Weight: 0.7},
			{Comm: gazetteer.Soviet, Weight: 2.2},
		},
		TestimonyFraction: 0.34,
		ReportsDist:       append([]float64(nil), defaultReportsDist...),
		TownsPerCounty:    25,
		VariantRate:       0.25,
		TypoRate:          0.04,
		YearSlip:          0.06,
		SecondName:        0.08,
	}
}

// FullShapeConfig mirrors the full 6.5M database's *shape* at a reduced
// size: the same community mix and source structure as RandomSetConfig but
// with large lists dominating, so the pattern histogram reproduces the
// Figure-11 skew.
func FullShapeConfig(persons int) Config {
	c := RandomSetConfig(persons)
	c.Seed = 1991
	// Few, large lists per community give the Figure-11 skew: a handful
	// of head patterns covering most records.
	c.ListCount = persons / 6000
	if c.ListCount < 4 {
		c.ListCount = 4
	}
	return c
}

// prevalence profiles: probability a field appears on a report, by source
// kind. Testimonies are rich; lists are sparse and pattern-locked. The
// numbers target Table 3's full-set column once mixed at the configured
// testimony fraction.
type fieldProfile struct {
	last, first, gender            float64
	dob                            float64 // year present; day+month conditional
	father, mother, spouse         float64
	maiden, motherMaiden           float64
	perm, war, birthPlace, deathPl float64
	profession                     float64
}

var testimonyProfile = fieldProfile{
	last: 0.99, first: 0.99, gender: 0.97,
	dob:    0.72,
	father: 0.74, mother: 0.62, spouse: 0.55,
	maiden: 0.50, motherMaiden: 0.18,
	perm: 0.88, war: 0.70, birthPlace: 0.62, deathPl: 0.52,
	profession: 0.33,
}

var listProfile = fieldProfile{
	last: 0.97, first: 0.95, gender: 0.83,
	dob:    0.60,
	father: 0.41, mother: 0.29, spouse: 0.42,
	maiden: 0.35, motherMaiden: 0.09,
	perm: 0.61, war: 0.52, birthPlace: 0.23, deathPl: 0.25,
	profession: 0.36,
}

// italyAdjust nudges the testimony profile toward the Italy column of
// Table 3 (father names near-universal, birth places ~90%).
func italyAdjust(p fieldProfile) fieldProfile {
	p.father = 0.86
	p.birthPlace = 0.93
	p.perm = 0.92
	p.deathPl = 0.62
	p.mother = 0.60
	p.spouse = 0.42
	p.profession = 0.27
	return p
}

// italyListAdjust nudges the list profile for the Italian community's
// sources, which are unusually rich in birth and death places.
func italyListAdjust(p fieldProfile) fieldProfile {
	p.birthPlace = 0.65
	p.deathPl = 0.50
	p.gender = 0.92
	return p
}

// mvPattern is the MV submitter's fixed data pattern: first name, last
// name, father name, birth place, and death place, plus the gender the
// registrars derived from the first name.
var mvPattern = []record.ItemType{
	record.FirstName, record.LastName, record.FatherName, record.Gender,
	record.BirthCity, record.BirthCounty, record.BirthRegion, record.BirthCountry,
	record.DeathCity, record.DeathCounty, record.DeathRegion, record.DeathCountry,
}
