void gemm(float alpha, float beta, float C[8][8], float A[8][8], float B[8][8]) {
  for (int i = 0; i < 8; i++) {
    for (int j = 0; j < 8; j++)
      C[i][j] = C[i][j] * beta;
    for (int k = 0; k < 8; k++)
      for (int j = 0; j < 8; j++)
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
  }
}
