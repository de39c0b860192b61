// Package optics models the physical substrate of the free-space optical
// interconnect: Gaussian-beam propagation through the micro-lens /
// micro-mirror path, VCSEL and photodetector device behaviour, receiver
// noise, and the end-to-end link budget that Table 1 of the paper
// summarizes. All quantities are SI (meters, watts, amperes, hertz)
// unless a name says otherwise. It also holds the §4.1 layout arithmetic
// (VCSEL counts and area, dedicated arrays or steerable phase arrays)
// and the worst-case insertion loss of each topology in the network
// table.
package optics

import "math"

// GaussianBeam describes a fundamental-mode (TEM00) beam by its waist
// radius (1/e² intensity) and wavelength.
type GaussianBeam struct {
	Waist      float64 // waist radius w0, m
	Wavelength float64 // vacuum wavelength, m
	Index      float64 // refractive index of the propagation medium (1 for free space)
}

// RayleighRange returns z_R = pi * w0^2 * n / lambda, the distance over
// which the beam stays roughly collimated.
func (b GaussianBeam) RayleighRange() float64 {
	n := b.Index
	if n == 0 { //lint:allow floateq unset-field sentinel: Index is assigned, never computed
		n = 1
	}
	return math.Pi * b.Waist * b.Waist * n / b.Wavelength
}

// RadiusAt returns the 1/e² beam radius after propagating distance z from
// the waist: w(z) = w0 * sqrt(1 + (z/zR)^2).
func (b GaussianBeam) RadiusAt(z float64) float64 {
	zr := b.RayleighRange()
	r := z / zr
	return b.Waist * math.Sqrt(1+r*r)
}

// ApertureTransmission returns the fraction of beam power passing a
// centered circular aperture of the given radius when the local beam
// radius is w: T = 1 - exp(-2 a² / w²).
func ApertureTransmission(apertureRadius, beamRadius float64) float64 {
	if apertureRadius <= 0 {
		return 0
	}
	if beamRadius <= 0 {
		return 1
	}
	r := apertureRadius / beamRadius
	return 1 - math.Exp(-2*r*r)
}

// erfc is math.Erfc; aliased here so BER code reads like the textbook
// formula.
func erfc(x float64) float64 { return math.Erfc(x) }

// BERFromQ returns the on-off-keying bit error rate for Gaussian noise
// with the given Q factor: BER = 0.5 * erfc(Q / sqrt 2).
func BERFromQ(q float64) float64 {
	return 0.5 * erfc(q/math.Sqrt2)
}
