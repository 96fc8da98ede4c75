"""Learning-to-rank: features, losses, models, and ranking metrics."""
