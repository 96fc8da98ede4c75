"""kgcausal: metapath subgraph retrieval from knowledge graphs,
learning-to-rank over those subgraphs, and zero-shot causal relation
classification with the top-ranked paths embedded in prompts.
"""
