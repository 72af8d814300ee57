"""minorcert: exact and numeric certificates for contiguous-minor
determinant identities of Toeplitz-type and accretive matrices."""
