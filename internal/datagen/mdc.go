package datagen

import "powl/internal/rdf"

// MDCConfig scales the MDC generator.
type MDCConfig struct {
	// Fields is the number of oilfields (the locality unit).
	Fields int
	Seed   int64
	// WellsPerField overrides the default range of 4–6; 0 keeps it.
	WellsPerField int
}

const mdcNS = "http://benchmark.powl/mdc#"

// MDC generates an oilfield measurement dataset standing in for the paper's
// proprietary Chevron MDC data (see DESIGN.md, substitutions). Entities form
// deep containment chains — sensor ⊑ device ⊑ wellbore segment ⊑ well ⊑
// field — over a transitive partOf property, plus per-well measurement
// channels chained by a transitive `upstreamOf`. Within a field everything
// is tightly connected; across fields there are almost no edges. Like LUBM
// it carries an allValuesFrom axiom, so the backward engine exhibits its
// worst-case scan behaviour and data partitioning wins super-linearly, which
// is how the paper describes MDC behaving (§VI-A).
func MDC(cfg MDCConfig) *Dataset {
	if cfg.Fields < 1 {
		cfg.Fields = 1
	}
	b := newBuilder(cfg.Seed ^ 0x3dc0)

	// ----- TBox ------------------------------------------------------------
	asset := b.class(mdcNS + "Asset")
	field := b.class(mdcNS+"Field", asset)
	well := b.class(mdcNS+"Well", asset)
	segment := b.class(mdcNS+"WellboreSegment", asset)
	device := b.class(mdcNS+"Device", asset)
	sensor := b.class(mdcNS+"Sensor", device)
	pressureSensor := b.class(mdcNS+"PressureSensor", sensor)
	tempSensor := b.class(mdcNS+"TemperatureSensor", sensor)
	channel := b.class(mdcNS + "Channel")
	measurement := b.class(mdcNS + "Measurement")

	// partOf and upstreamOf keep domains only; a range axiom would make every
	// query enumerate the full transitive closure (see the LUBM generator).
	// For the same reason there is no owl:inverseOf bridge onto partOf: an
	// inverse property would let bounded-object goals re-open the transitive
	// rule with both positions free.
	partOf := b.prop(mdcNS+"partOf", asset, 0)
	b.add(partOf, b.typ, b.transitive)
	upstreamOf := b.prop(mdcNS+"upstreamOf", channel, 0)
	b.add(upstreamOf, b.typ, b.transitive)
	measures := b.prop(mdcNS+"measures", sensor, channel)
	hasSensor := b.prop(mdcNS+"hasSensor", device, sensor)
	recordedBy := b.prop(mdcNS+"recordedBy", measurement, channel)
	calibratedWith := b.prop(mdcNS+"calibratedWith", sensor, sensor)
	b.add(calibratedWith, b.typ, b.symmetric)

	// InstrumentedDevice ≡ ∃hasSensor.Sensor — the MDC someValuesFrom
	// inference, analogous to LUBM's Chair.
	monRestr := b.someValues(mdcNS+"InstrumentedRestriction", hasSensor, sensor)
	monitored := b.class(mdcNS+"InstrumentedDevice", device)
	b.add(monRestr, b.subClassOf, monitored)

	// Field ⊑ ∀operates.Well — the worst-case-scan trigger (see LUBM's
	// GrantsOnlyDegrees axiom for the rationale). `operates` is a plain
	// property, so the per-query excess work is proportional to the number
	// of fields in the searched partition; together with the per-query
	// re-derivation of the partOf/upstreamOf transitive chains this makes
	// MDC noticeably super-linear, as the paper describes.
	operates := b.prop(mdcNS+"operates", 0, 0)
	avf := b.allValues(mdcNS+"OperatesOnlyWells", operates, well)
	b.add(field, b.subClassOf, avf)

	// ----- ABox ------------------------------------------------------------
	for f := 0; f < cfg.Fields; f++ {
		fieldNS := func(rest string) string { return mdcNS + "field" + itoa(f) + "/" + rest }
		fld := b.iri(mdcNS + "field" + itoa(f))
		b.add(fld, b.typ, field)

		wells := cfg.WellsPerField
		if wells <= 0 {
			wells = b.between(4, 6)
		}
		for w := 0; w < wells; w++ {
			wellName := "well" + itoa(w)
			wl := b.iri(fieldNS(wellName))
			b.add(wl, b.typ, well)
			b.add(wl, partOf, fld)
			b.add(fld, operates, wl)

			// Deep containment: a chain of wellbore segments.
			nSeg := b.between(3, 5)
			prev := wl
			var segs []rdf.ID
			for s := 0; s < nSeg; s++ {
				sg := b.iri(fieldNS(wellName + "/seg" + itoa(s)))
				b.add(sg, b.typ, segment)
				b.add(sg, partOf, prev)
				segs = append(segs, sg)
				prev = sg
			}

			// Devices and sensors hang off segments.
			var sensors []rdf.ID
			var channels []rdf.ID
			for s, sg := range segs {
				dv := b.iri(fieldNS(wellName + "/dev" + itoa(s)))
				b.add(dv, b.typ, device)
				b.add(dv, partOf, sg)
				for si := 0; si < 2; si++ {
					sn := b.iri(fieldNS(wellName + "/sensor" + itoa(s) + "_" + itoa(si)))
					if si == 0 {
						b.add(sn, b.typ, pressureSensor)
					} else {
						b.add(sn, b.typ, tempSensor)
					}
					b.add(sn, partOf, dv)
					b.add(dv, hasSensor, sn)
					sensors = append(sensors, sn)
					ch := b.iri(fieldNS(wellName + "/chan" + itoa(s) + "_" + itoa(si)))
					b.add(ch, b.typ, channel)
					b.add(sn, measures, ch)
					channels = append(channels, ch)
				}
			}
			// Channels along a well form an upstreamOf chain — the second
			// deep transitive structure.
			for i := 1; i < len(channels); i++ {
				b.add(channels[i-1], upstreamOf, channels[i])
			}
			// Sensor pairs are cross-calibrated within the well.
			for i := 1; i < len(sensors); i += 2 {
				b.add(sensors[i-1], calibratedWith, sensors[i])
			}
			// A few measurements per channel.
			for ci, ch := range channels {
				for m := 0; m < b.between(1, 2); m++ {
					ms := b.iri(fieldNS(wellName + "/meas" + itoa(ci) + "_" + itoa(m)))
					b.add(ms, b.typ, measurement)
					b.add(ms, recordedBy, ch)
				}
			}
		}
	}
	return &Dataset{Name: "mdc", Dict: b.dict, Graph: b.g, DomainKey: MarkerKey("field")}
}
