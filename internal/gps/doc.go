// Package gps simulates the paper's positioning substrate: "the user
// movement is obtained by GPS". A Receiver samples a mobility model at
// a fixed interval and adds Gaussian position noise; an Estimator
// converts the fix stream into the speed/heading estimates that the
// fuzzy prediction stage consumes; Observe derives the FLC1 input
// triple (Speed, Angle, Distance) relative to a base station.
//
// The Observation convention matches the paper: AngleDeg is the
// deviation of the user's heading from the bearing towards the base
// station, zero meaning "moving straight at it" and ±180 "directly
// away". Estimate carries the absolute kinematics (position, heading,
// speed) that mobility-predictive controllers such as SCC consume.
//
// Entry points: NewReceiver + NewEstimator for the noisy pipeline
// (a negative ReceiverConfig.NoiseSigmaM makes it noise-free), Observe
// for the relative-triple projection.
package gps
