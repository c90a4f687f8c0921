package controller

// BuildSystem hands the in-package harness (reference inputs plus one
// in-process or loopback-TCP agent per site) to the external tests that
// drive the loop through both constructors.
var BuildSystem = buildSystem
