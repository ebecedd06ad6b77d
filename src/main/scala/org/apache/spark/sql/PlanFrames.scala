package org.apache.spark.sql

import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan

/** Spark-internal calls the program needs: DataFrames over hand-built
  * plans or internal rows, and the session catalog's temp view entries.
  * They are `private[sql]` or unstable, hence this bridge in Spark's
  * package.
  */
object PlanFrames {
  def ofPlan(spark: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(spark.asInstanceOf[classic.SparkSession], plan)

  /** `df` as a leaf relation over its internal rows, whose plan is not
    * planned again by each query that reads it: no row is converted to a
    * `Row` and back.
    */
  def leaf(df: DataFrame): DataFrame =
    df.sparkSession.asInstanceOf[classic.SparkSession].internalCreateDataFrame(df.queryExecution.toRdd, df.schema)

  /** The catalog's entry for the temporary view `name`, if any. Every
    * registration makes a new entry, so entries compare by reference.
    */
  def tempView(spark: SparkSession, name: String): Option[AnyRef] =
    spark.asInstanceOf[classic.SparkSession].sessionState.catalog.getRawTempView(name)
}
