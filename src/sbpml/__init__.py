"""SBP-SAT finite difference solver for 2D Maxwell TMz with stabilized
absorbing layers (PML)."""
